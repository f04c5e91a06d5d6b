//! Jaro and Jaro-Winkler string similarity (Winkler 1999), used by the
//! SoftTFIDF combination predicate as its word-level similarity function.
//!
//! Strings of at most 64 ASCII characters take an allocation-free path that
//! keeps the match flags of each side in one `u64`; anything else takes the
//! character-vector reference [`jaro_chars`]. Both paths run the same
//! matching and the same arithmetic in the same order, so they agree bit for
//! bit.

/// Longest string the bitset path handles (one machine word of flags).
const MAX_BITSET: usize = 64;

/// Jaro similarity between two strings in `[0, 1]`.
pub fn jaro(a: &str, b: &str) -> f64 {
    if a.len() <= MAX_BITSET && b.len() <= MAX_BITSET && a.is_ascii() && b.is_ascii() {
        jaro_ascii(a.as_bytes(), b.as_bytes())
    } else {
        let a: Vec<char> = a.chars().collect();
        let b: Vec<char> = b.chars().collect();
        jaro_chars(&a, &b)
    }
}

/// The matching window of Jaro: characters match only within this distance.
fn match_window(la: usize, lb: usize) -> usize {
    (la.max(lb) / 2).saturating_sub(1)
}

/// The Jaro formula over the match count and the transposition count.
fn jaro_score(matches: usize, transpositions: usize, la: usize, lb: usize) -> f64 {
    let m = matches as f64;
    (m / la as f64 + m / lb as f64 + (m - transpositions as f64) / m) / 3.0
}

/// Jaro over ASCII byte strings of at most 64 characters, with the matched
/// positions of each side as bit sets.
fn jaro_ascii(a: &[u8], b: &[u8]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = match_window(a.len(), b.len());
    let mut a_matched = 0u64;
    let mut b_matched = 0u64;
    let mut matches = 0usize;
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for (j, &cb) in b.iter().enumerate().take(hi).skip(lo) {
            if b_matched & (1u64 << j) == 0 && cb == ca {
                a_matched |= 1u64 << i;
                b_matched |= 1u64 << j;
                matches += 1;
                break;
            }
        }
    }
    if matches == 0 {
        return 0.0;
    }
    // Walk both matched subsequences in order, pairing the k-th matched
    // character of each side.
    let mut mismatched = 0usize;
    while a_matched != 0 {
        let i = a_matched.trailing_zeros() as usize;
        let j = b_matched.trailing_zeros() as usize;
        mismatched += usize::from(a[i] != b[j]);
        a_matched &= a_matched - 1;
        b_matched &= b_matched - 1;
    }
    jaro_score(matches, mismatched / 2, a.len(), b.len())
}

/// Jaro over character slices: the reference the bitset path is tested
/// against, and the path for long or non-ASCII strings.
pub fn jaro_chars(a: &[char], b: &[char]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = match_window(a.len(), b.len());
    let mut b_matched = vec![false; b.len()];
    let mut a_matched = vec![false; a.len()];
    let mut matches = 0usize;

    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_matched[j] && b[j] == ca {
                a_matched[i] = true;
                b_matched[j] = true;
                matches += 1;
                break;
            }
        }
    }
    if matches == 0 {
        return 0.0;
    }

    // Count transpositions between the matched subsequences.
    let a_seq: Vec<char> =
        a.iter().enumerate().filter(|(i, _)| a_matched[*i]).map(|(_, &c)| c).collect();
    let b_seq: Vec<char> =
        b.iter().enumerate().filter(|(j, _)| b_matched[*j]).map(|(_, &c)| c).collect();
    let transpositions = a_seq.iter().zip(b_seq.iter()).filter(|(x, y)| x != y).count() / 2;
    jaro_score(matches, transpositions, a.len(), b.len())
}

/// Jaro-Winkler similarity: boosts the Jaro score for strings sharing a
/// common prefix of up to four characters, with scaling factor `p = 0.1`.
pub fn jaro_winkler(a: &str, b: &str) -> f64 {
    jaro_winkler_with(a, b, 0.1, 4)
}

/// Jaro-Winkler with an explicit prefix scaling factor and max prefix length.
pub fn jaro_winkler_with(a: &str, b: &str, prefix_scale: f64, max_prefix: usize) -> f64 {
    let j = jaro(a, b);
    let prefix = a.chars().zip(b.chars()).take(max_prefix).take_while(|(x, y)| x == y).count();
    let score = j + prefix as f64 * prefix_scale * (1.0 - j);
    score.min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-3, "{a} vs {b}");
    }

    #[test]
    fn identical_and_disjoint() {
        assert_eq!(jaro("martha", "martha"), 1.0);
        assert_eq!(jaro_winkler("martha", "martha"), 1.0);
        assert_eq!(jaro("abc", "xyz"), 0.0);
        assert_eq!(jaro("", ""), 1.0);
        assert_eq!(jaro("", "abc"), 0.0);
        assert_eq!(jaro("abc", ""), 0.0);
    }

    #[test]
    fn known_reference_values() {
        // Classic examples from Winkler's papers.
        assert_close(jaro("MARTHA", "MARHTA"), 0.9444);
        assert_close(jaro_winkler("MARTHA", "MARHTA"), 0.9611);
        assert_close(jaro("DIXON", "DICKSONX"), 0.7667);
        assert_close(jaro_winkler("DIXON", "DICKSONX"), 0.8133);
        assert_close(jaro("DWAYNE", "DUANE"), 0.8222);
        assert_close(jaro_winkler("DWAYNE", "DUANE"), 0.8400);
    }

    #[test]
    fn winkler_never_lower_than_jaro() {
        for (a, b) in [("stanley", "stalney"), ("beijing", "bejing"), ("group", "grop")] {
            assert!(jaro_winkler(a, b) >= jaro(a, b));
            assert!(jaro_winkler(a, b) <= 1.0);
        }
    }

    #[test]
    fn symmetric() {
        for (a, b) in [("morgan", "mogran"), ("inc", "incorporated"), ("a", "b")] {
            assert_close(jaro(a, b), jaro(b, a));
            assert_close(jaro_winkler(a, b), jaro_winkler(b, a));
        }
    }

    #[test]
    fn prefix_boost_requires_common_prefix() {
        // No common prefix: Winkler equals Jaro.
        let a = "XAVIER";
        let b = "AVIER";
        assert_close(jaro_winkler(a, b), jaro(a, b));
    }

    #[test]
    fn single_characters() {
        assert_eq!(jaro("a", "a"), 1.0);
        assert_eq!(jaro("a", "b"), 0.0);
    }
}
