//! Answer checks. Every served answer is compared against a reference run
//! outside the timed phase; a request that fails its check counts as failed
//! in `success_share`, exactly like one that returned an error.

use dasp_core::record::cmp_ranked;
use dasp_core::{ScoredTid, Tid};
use std::collections::HashMap;

/// Outcome of one check: `Err` carries a human-readable reason.
pub type Check = Result<(), String>;

/// Byte identity: the same tids with bit-identical scores in the same order.
pub fn byte_identical(got: &[ScoredTid], expected: &[ScoredTid]) -> Check {
    let bits = |v: &[ScoredTid]| v.iter().map(|s| (s.tid, s.score.to_bits())).collect::<Vec<_>>();
    if bits(got) == bits(expected) {
        Ok(())
    } else {
        Err(format!("answer differs from the reference: got {got:?}, expected {expected:?}"))
    }
}

/// Tie-class equality at the k boundary, the contract of the bounded top-k
/// operators: the same score-bit sequence as the reference top-k, identical
/// membership (in order) strictly above the boundary score, and — when the
/// full ranking `truth` is at hand — every returned tid carrying its exact
/// score. Only tids tied at the boundary may differ from the reference.
pub fn tie_class_equal(
    got: &[ScoredTid],
    expected: &[ScoredTid],
    truth: Option<&[ScoredTid]>,
) -> Check {
    let scores = |v: &[ScoredTid]| v.iter().map(|s| s.score.to_bits()).collect::<Vec<_>>();
    if scores(got) != scores(expected) {
        return Err(format!("score sequence differs: got {got:?}, expected {expected:?}"));
    }
    if let Some(boundary) = expected.last().map(|s| s.score) {
        let above = |v: &[ScoredTid]| {
            v.iter().filter(|s| s.score > boundary).map(|s| s.tid).collect::<Vec<_>>()
        };
        if above(got) != above(expected) {
            return Err(format!(
                "membership above the k boundary differs: got {got:?}, expected {expected:?}"
            ));
        }
    }
    if let Some(truth) = truth {
        let exact: HashMap<Tid, u64> = truth.iter().map(|s| (s.tid, s.score.to_bits())).collect();
        if let Some(wrong) = got.iter().find(|s| exact.get(&s.tid) != Some(&s.score.to_bits())) {
            return Err(format!("tid {} returned with a score it does not have", wrong.tid));
        }
    }
    Ok(())
}

/// Shape of any top-k answer: at most `k` rows, no tid twice, scores finite
/// and in the canonical ranking order (descending score, ascending tid).
pub fn well_formed(got: &[ScoredTid], k: usize) -> Check {
    if got.len() > k {
        return Err(format!("{} rows for a top-{k} request", got.len()));
    }
    if got.iter().any(|s| !s.score.is_finite()) {
        return Err(format!("non-finite score in {got:?}"));
    }
    if !got.windows(2).all(|w| cmp_ranked(&w[0], &w[1]).is_lt()) {
        return Err(format!("rows out of ranking order: {got:?}"));
    }
    let mut tids: Vec<Tid> = got.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    if tids.windows(2).any(|w| w[0] == w[1]) {
        return Err(format!("duplicate tid in {got:?}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(v: &[(Tid, f64)]) -> Vec<ScoredTid> {
        v.iter().map(|&(t, s)| ScoredTid::new(t, s)).collect()
    }

    #[test]
    fn tie_class_admits_boundary_swaps_only() {
        let truth = rows(&[(4, 0.9), (1, 0.5), (2, 0.5), (3, 0.5)]);
        let expected = rows(&[(4, 0.9), (1, 0.5)]);
        assert!(tie_class_equal(&rows(&[(4, 0.9), (3, 0.5)]), &expected, Some(&truth)).is_ok());
        // A tid above the boundary may not be swapped out...
        assert!(tie_class_equal(&rows(&[(1, 0.9), (2, 0.5)]), &expected, Some(&truth)).is_err());
        // ...a boundary tid must carry its real score...
        assert!(tie_class_equal(&rows(&[(4, 0.9), (9, 0.5)]), &expected, Some(&truth)).is_err());
        // ...and the score sequence must match bit for bit.
        assert!(tie_class_equal(&rows(&[(4, 0.9), (1, 0.4)]), &expected, None).is_err());
    }

    #[test]
    fn byte_identity_and_shape() {
        let a = rows(&[(1, 0.5), (2, 0.25)]);
        assert!(byte_identical(&a, &a.clone()).is_ok());
        assert!(byte_identical(&a, &rows(&[(2, 0.5), (1, 0.25)])).is_err());
        assert!(well_formed(&a, 2).is_ok());
        assert!(well_formed(&a, 1).is_err());
        assert!(well_formed(&rows(&[(1, 0.25), (2, 0.5)]), 2).is_err());
        assert!(well_formed(&rows(&[(1, 0.5), (1, 0.25)]), 2).is_err());
    }
}
