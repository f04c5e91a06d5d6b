//! Levenshtein edit distance and the edit similarity of §3.4.
//!
//! [`EditPattern`] is the prepared form: one side of the comparison is
//! turned once into the per-character match masks of the bit-parallel
//! algorithm of Myers (1999), in Hyyrö's formulation for global edit
//! distance, so comparing it against many texts costs one pass over each
//! text with a handful of word operations per character and no allocation.
//! Patterns longer than 64 characters or holding non-ASCII characters keep
//! the two-row dynamic program of [`edit_distance_chars`].

/// Longest pattern the bit-parallel path handles (one machine word).
const MAX_BIT_PARALLEL: usize = 64;

/// A string prepared for repeated edit-distance comparisons.
///
/// Build it once per query-side word and call [`distance`](Self::distance)
/// or [`similarity`](Self::similarity) per text; the results equal
/// [`edit_distance`] and [`edit_similarity`] exactly.
#[derive(Debug, Clone)]
pub struct EditPattern {
    /// Pattern length in Unicode scalar values.
    len: usize,
    /// Per ASCII code: the bit set of pattern positions holding it.
    peq: [u64; 128],
    /// The pattern's characters when it takes the dynamic-programming
    /// fallback; `None` on the bit-parallel path.
    fallback: Option<Vec<char>>,
}

impl EditPattern {
    /// Prepare `pattern`.
    pub fn new(pattern: &str) -> Self {
        let len = pattern.chars().count();
        let mut peq = [0u64; 128];
        if len <= MAX_BIT_PARALLEL && pattern.is_ascii() {
            for (i, b) in pattern.bytes().enumerate() {
                peq[b as usize] |= 1u64 << i;
            }
            EditPattern { len, peq, fallback: None }
        } else {
            EditPattern { len, peq, fallback: Some(pattern.chars().collect()) }
        }
    }

    /// Edit distance to `text` and the length of `text` in characters.
    fn distance_and_text_len(&self, text: &str) -> (usize, usize) {
        if let Some(chars) = &self.fallback {
            let text: Vec<char> = text.chars().collect();
            return (edit_distance_chars(chars, &text), text.len());
        }
        if self.len == 0 {
            let n = text.chars().count();
            return (n, n);
        }
        // Vertical deltas of the current DP column as two bit vectors
        // (+1 in `pv`, -1 in `mv`); `score` tracks the last row. Bits above
        // the pattern length never carry into lower bits, so all-ones works
        // as the initial column for every length up to 64.
        let last = 1u64 << (self.len - 1);
        let mut pv = !0u64;
        let mut mv = 0u64;
        let mut score = self.len;
        let mut n = 0usize;
        for c in text.chars() {
            n += 1;
            let eq = if c.is_ascii() { self.peq[c as usize] } else { 0 };
            let xv = eq | mv;
            let xh = ((eq & pv).wrapping_add(pv) ^ pv) | eq;
            let ph = mv | !(xh | pv);
            let mh = pv & xh;
            if ph & last != 0 {
                score += 1;
            } else if mh & last != 0 {
                score -= 1;
            }
            // The first DP row grows by one per text character, so a +1
            // horizontal delta shifts in at the top.
            let ph = (ph << 1) | 1;
            let mh = mh << 1;
            pv = mh | !(xv | ph);
            mv = ph & xv;
        }
        (score, n)
    }

    /// Levenshtein distance between the pattern and `text`.
    pub fn distance(&self, text: &str) -> usize {
        self.distance_and_text_len(text).0
    }

    /// Edit similarity (Equation 3.13) between the pattern and `text`.
    pub fn similarity(&self, text: &str) -> f64 {
        let (d, text_len) = self.distance_and_text_len(text);
        let max_len = self.len.max(text_len);
        if max_len == 0 {
            return 1.0;
        }
        1.0 - d as f64 / max_len as f64
    }
}

/// Levenshtein edit distance between two strings (unit costs for insert,
/// delete and substitute; copy is free), computed over Unicode scalar values.
pub fn edit_distance(a: &str, b: &str) -> usize {
    EditPattern::new(a).distance(b)
}

/// Edit distance over pre-split character slices: the two-row dynamic
/// program, the reference the bit-parallel path is tested against.
pub fn edit_distance_chars(a: &[char], b: &[char]) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    // Two-row dynamic program.
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut curr: Vec<usize> = vec![0; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        curr[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            curr[j + 1] = (prev[j + 1] + 1).min(curr[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[b.len()]
}

/// Banded edit distance: returns `None` when the distance exceeds `max_d`.
/// Used by the edit-based predicate after q-gram filtering, where only
/// candidates within a threshold matter.
pub fn edit_distance_within(a: &str, b: &str, max_d: usize) -> Option<usize> {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.len().abs_diff(b.len()) > max_d {
        return None;
    }
    if a.is_empty() {
        return (b.len() <= max_d).then_some(b.len());
    }
    if b.is_empty() {
        return (a.len() <= max_d).then_some(a.len());
    }
    let inf = usize::MAX / 2;
    let mut prev: Vec<usize> = (0..=b.len()).map(|j| if j <= max_d { j } else { inf }).collect();
    let mut curr: Vec<usize> = vec![inf; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        let lo = (i + 1).saturating_sub(max_d);
        let hi = (i + 1 + max_d).min(b.len());
        curr[0] = if i < max_d { i + 1 } else { inf };
        if lo > 1 {
            curr[lo - 1] = inf;
        }
        let mut row_min = curr[0];
        for j in lo.max(1)..=hi {
            let cb = b[j - 1];
            let cost = usize::from(ca != cb);
            let del = if prev[j] < inf { prev[j] + 1 } else { inf };
            let ins = if curr[j - 1] < inf { curr[j - 1] + 1 } else { inf };
            let sub = if prev[j - 1] < inf { prev[j - 1] + cost } else { inf };
            curr[j] = del.min(ins).min(sub);
            row_min = row_min.min(curr[j]);
        }
        // Reset the cells outside the band for the next row.
        for cell in curr.iter_mut().take(lo.max(1)).skip(1) {
            *cell = inf;
        }
        for cell in curr.iter_mut().skip(hi + 1) {
            *cell = inf;
        }
        if row_min > max_d {
            return None;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    let d = prev[b.len()];
    (d <= max_d).then_some(d)
}

/// Edit similarity (Equation 3.13): `1 - ed(Q, D) / max(|Q|, |D|)`,
/// defined as 1.0 when both strings are empty.
pub fn edit_similarity(a: &str, b: &str) -> f64 {
    EditPattern::new(a).similarity(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_cases() {
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abc", ""), 3);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("abc", "abd"), 1);
        assert_eq!(edit_distance("flaw", "lawn"), 2);
    }

    #[test]
    fn unicode_counts_scalars_not_bytes() {
        assert_eq!(edit_distance("café", "cafe"), 1);
        assert_eq!(edit_distance("日本語", "日本"), 1);
    }

    #[test]
    fn similarity_bounds_and_examples() {
        assert_eq!(edit_similarity("", ""), 1.0);
        assert_eq!(edit_similarity("abc", "abc"), 1.0);
        assert_eq!(edit_similarity("abc", "xyz"), 0.0);
        let s = edit_similarity("stanley", "valley");
        assert!(s > 0.0 && s < 1.0);
        // Paper §5.4.1: "Stanley" and "Valley" have low edit distance, which
        // is why edit-based predicates confuse them.
        assert!(s >= 0.5);
    }

    #[test]
    fn banded_matches_full_when_within_threshold() {
        let pairs = [("kitten", "sitting"), ("morgan", "mogran"), ("a", "abcdef"), ("abc", "abc")];
        for (a, b) in pairs {
            let full = edit_distance(a, b);
            for k in 0..=8usize {
                let banded = edit_distance_within(a, b, k);
                if full <= k {
                    assert_eq!(banded, Some(full), "{a} vs {b} k={k}");
                } else {
                    assert_eq!(banded, None, "{a} vs {b} k={k}");
                }
            }
        }
    }

    #[test]
    fn banded_empty_strings() {
        assert_eq!(edit_distance_within("", "", 0), Some(0));
        assert_eq!(edit_distance_within("", "ab", 1), None);
        assert_eq!(edit_distance_within("", "ab", 2), Some(2));
        assert_eq!(edit_distance_within("ab", "", 5), Some(2));
    }

    #[test]
    fn symmetric() {
        for (a, b) in [("hello", "help"), ("data", "date"), ("", "x")] {
            assert_eq!(edit_distance(a, b), edit_distance(b, a));
            assert_eq!(edit_similarity(a, b), edit_similarity(b, a));
        }
    }
}
