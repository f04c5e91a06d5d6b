//! Property-based tests for the text primitives: metric-like invariants of
//! edit distance, bounds of Jaro-Winkler, and q-gram counting identities.

use dasp_text::edit::edit_distance_chars;
use dasp_text::jaro::jaro_chars;
use dasp_text::{
    edit_distance, edit_distance_within, edit_similarity, jaro, jaro_winkler, qgrams, word_tokens,
    EditPattern, MinHasher, QgramConfig,
};
use proptest::prelude::*;
use std::collections::HashSet;

/// Printable-ish strings standing in for proptest's `.{0,n}` regex (ASCII
/// letters, digits, punctuation and whitespace).
const ANY: &str = "abcXYZ019 .,'&-\t\u{e9}\u{4e16}";

#[test]
fn edit_distance_is_a_metric() {
    check(128, |g| {
        let a = g.string_of("abc", 0..13);
        let b = g.string_of("abc", 0..13);
        let c = g.string_of("abc", 0..13);
        let dab = edit_distance(&a, &b);
        let dba = edit_distance(&b, &a);
        assert_eq!(dab, dba); // symmetry
        assert_eq!(edit_distance(&a, &a), 0); // identity
        let dac = edit_distance(&a, &c);
        let dbc = edit_distance(&b, &c);
        assert!(dac <= dab + dbc); // triangle inequality
                                   // Distance is bounded by the longer string's length.
        assert!(dab <= a.chars().count().max(b.chars().count()));
    });
}

#[test]
fn banded_edit_distance_agrees_with_full() {
    check(128, |g| {
        let a = g.string_of("abcd", 0..11);
        let b = g.string_of("abcd", 0..11);
        let k = g.usize_in(0..12);
        let full = edit_distance(&a, &b);
        match edit_distance_within(&a, &b, k) {
            Some(d) => {
                assert_eq!(d, full);
                assert!(d <= k);
            }
            None => assert!(full > k),
        }
    });
}

#[test]
fn edit_similarity_in_unit_interval() {
    check(128, |g| {
        let a = g.string_of(ANY, 0..17);
        let b = g.string_of(ANY, 0..17);
        let s = edit_similarity(&a, &b);
        assert!((0.0..=1.0).contains(&s));
        assert!((edit_similarity(&a, &a) - 1.0).abs() < 1e-12);
    });
}

#[test]
fn jaro_winkler_bounds_and_symmetry() {
    check(128, |g| {
        let a = g.string_of("abcde", 0..11);
        let b = g.string_of("abcde", 0..11);
        let j = jaro(&a, &b);
        let w = jaro_winkler(&a, &b);
        assert!((0.0..=1.0).contains(&j));
        assert!((0.0..=1.0).contains(&w));
        assert!(w >= j - 1e-12);
        assert!((jaro(&a, &b) - jaro(&b, &a)).abs() < 1e-12);
        assert!((jaro(&a, &a) - 1.0).abs() < 1e-12 || a.is_empty());
    });
}

fn chars(s: &str) -> Vec<char> {
    s.chars().collect()
}

/// The bit-parallel distance of a prepared pattern against the two-row DP,
/// plus the similarity derived from it against the Equation 3.13 formula.
fn assert_pattern_matches_dp(pattern: &str, text: &str) {
    let (p, t) = (chars(pattern), chars(text));
    let expected = edit_distance_chars(&p, &t);
    let prepared = EditPattern::new(pattern);
    assert_eq!(prepared.distance(text), expected, "{pattern:?} vs {text:?}");
    assert_eq!(edit_distance(pattern, text), expected, "{pattern:?} vs {text:?}");
    let max_len = p.len().max(t.len());
    let sim = if max_len == 0 { 1.0 } else { 1.0 - expected as f64 / max_len as f64 };
    assert_eq!(prepared.similarity(text).to_bits(), sim.to_bits(), "{pattern:?} vs {text:?}");
}

#[test]
fn bit_parallel_edit_distance_equals_dp() {
    check(256, |g| {
        let a = g.string_of("abcd", 0..20);
        let b = g.string_of("abcd", 0..20);
        assert_pattern_matches_dp(&a, &b);
        // Non-ASCII: on the text side the bit-parallel path still runs
        // (such characters match no pattern position); on the pattern side
        // the DP fallback takes over.
        let u = g.string_of(ANY, 0..17);
        let v = g.string_of(ANY, 0..17);
        assert_pattern_matches_dp(&u, &v);
        assert_pattern_matches_dp(&a, &u);
        assert_pattern_matches_dp(&u, &a);
    });
}

#[test]
fn bit_parallel_edit_distance_at_the_word_boundary() {
    // Patterns of 63, 64 (the last bit-parallel length) and 65 characters
    // (the first fallback length), against texts around the same lengths.
    check(64, |g| {
        for len in [63, 64, 65] {
            let pattern = g.string_of("ab", len..len + 1);
            let near = g.string_of("ab", len - 3..len + 4);
            let far = g.string_of("abc", 0..130);
            for text in [&near, &far, &pattern, &String::new()] {
                assert_pattern_matches_dp(&pattern, text);
                assert_pattern_matches_dp(text, &pattern);
            }
        }
    });
}

#[test]
fn empty_edit_patterns() {
    assert_pattern_matches_dp("", "");
    assert_pattern_matches_dp("", "abc");
    assert_pattern_matches_dp("abc", "");
    assert_pattern_matches_dp("", "\u{e9}\u{4e16}");
}

/// Jaro-Winkler from the character-vector reference, with the prefix rule
/// of `jaro_winkler` (p = 0.1, at most four characters).
fn jaro_winkler_reference(a: &str, b: &str) -> f64 {
    let j = jaro_chars(&chars(a), &chars(b));
    let prefix = a.chars().zip(b.chars()).take(4).take_while(|(x, y)| x == y).count();
    (j + prefix as f64 * 0.1 * (1.0 - j)).min(1.0)
}

#[test]
fn bitset_jaro_equals_char_reference_bit_for_bit() {
    check(256, |g| {
        let pairs = [
            (g.string_of("abcde", 0..11), g.string_of("abcde", 0..11)),
            (g.string_of("abcdefghij", 0..24), g.string_of("abcdefghij", 0..24)),
            (g.string_of("ab", 55..70), g.string_of("ab", 55..70)),
            (g.string_of(ANY, 0..13), g.string_of(ANY, 0..13)),
        ];
        for (a, b) in &pairs {
            let reference = jaro_chars(&chars(a), &chars(b));
            assert_eq!(jaro(a, b).to_bits(), reference.to_bits(), "{a:?} vs {b:?}");
            assert_eq!(
                jaro_winkler(a, b).to_bits(),
                jaro_winkler_reference(a, b).to_bits(),
                "{a:?} vs {b:?}"
            );
        }
    });
}

#[test]
fn qgram_count_matches_padded_length() {
    check(128, |g| {
        let s = g.string_of("abcdefghij ", 0..31);
        let q = g.usize_in(1..5);
        let config = QgramConfig { q, normalize: true };
        let grams = qgrams(&s, config);
        assert!(!grams.is_empty());
        for gram in &grams {
            assert_eq!(gram.chars().count(), q);
        }
        // Word-order invariance: reversing word order preserves the multiset.
        let words = word_tokens(&s);
        if words.len() >= 2 {
            let reversed = words.iter().rev().cloned().collect::<Vec<_>>().join(" ");
            let mut a = qgrams(&s, config);
            let mut b = qgrams(&reversed, config);
            a.sort();
            b.sort();
            assert_eq!(a, b);
        }
    });
}

#[test]
fn minhash_estimate_close_to_exact() {
    check(64, |g| {
        let a: HashSet<String> =
            g.vec(0..30, |g| g.string_of("abcdef", 2..3)).into_iter().collect();
        let b: HashSet<String> =
            g.vec(0..30, |g| g.string_of("abcdef", 2..3)).into_iter().collect();
        let hasher = MinHasher::new(256, 1234);
        let av: Vec<String> = a.iter().cloned().collect();
        let bv: Vec<String> = b.iter().cloned().collect();
        let est = hasher.estimate_jaccard(&av, &bv);
        let inter = a.intersection(&b).count() as f64;
        let union = a.union(&b).count() as f64;
        let exact = if union == 0.0 { est } else { inter / union };
        // 256 hashes: standard error ~ sqrt(p(1-p)/256) <= 0.032; allow 5 sigma.
        assert!((est - exact).abs() < 0.17, "est {est} exact {exact}");
    });
}

#[test]
fn word_tokens_never_contain_whitespace() {
    check(128, |g| {
        let s = g.string_of(ANY, 0..41);
        for w in word_tokens(&s) {
            assert!(!w.contains(char::is_whitespace));
            assert!(!w.is_empty());
        }
    });
}
