//! The generalized edit similarity (GES) of §3.5 and the exact GES predicate.
//!
//! GES aligns *word* tokens: transforming the query into the tuple by
//! replacing a word (cost `(1 - simedit) · w(t)`), inserting a word
//! (cost `cins · w(t)`) or deleting a word (cost `w(t)`), and normalizing the
//! minimum transformation cost by the total query weight.

use crate::corpus::TokenizedCorpus;
use crate::engine::{finalize_ranking, Exec, Query, SharedArtifacts};
use crate::params::GesParams;
use crate::record::ScoredTid;
use dasp_text::EditPattern;
use std::sync::Arc;

/// A word token paired with its weight, the unit GES aligns.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedWord {
    /// Upper-cased word token.
    pub word: String,
    /// Token weight (IDF in the paper's evaluation).
    pub weight: f64,
}

impl WeightedWord {
    /// Create a weighted word.
    pub fn new(word: impl Into<String>, weight: f64) -> Self {
        WeightedWord { word: word.into(), weight }
    }
}

/// The GES dynamic program over the three edit operations, one column per
/// tuple word: `column[i]` holds the minimum cost of transforming the first
/// `i` query words into the tuple words seen so far. Tuple word `j` has
/// weight `tuple_weight(j)`, and `similarity(i, j)` is the edit similarity
/// of query word `i` and tuple word `j`. `column` is scratch space that
/// callers reuse across tuples.
fn transformation_cost_with(
    query_weights: &[f64],
    tuple_len: usize,
    cins: f64,
    column: &mut Vec<f64>,
    tuple_weight: impl Fn(usize) -> f64,
    similarity: impl Fn(usize, usize) -> f64,
) -> f64 {
    column.clear();
    column.push(0.0);
    // Column 0: delete every query word.
    for (i, &w) in query_weights.iter().enumerate() {
        column.push(column[i] + w);
    }
    for j in 0..tuple_len {
        let insert_cost = cins * tuple_weight(j);
        // `diag` carries the previous column's cell above the current row.
        let mut diag = column[0];
        column[0] = diag + insert_cost; // insert tuple word
        for (i, &w) in query_weights.iter().enumerate() {
            let left = column[i + 1];
            let delete = column[i] + w;
            let insert = left + insert_cost;
            let replace = diag + (1.0 - similarity(i, j)) * w;
            column[i + 1] = delete.min(insert).min(replace);
            diag = left;
        }
    }
    column[query_weights.len()]
}

/// Minimum transformation cost from `query` to `tuple` (word-level dynamic
/// program over the three GES edit operations).
pub fn ges_transformation_cost(query: &[WeightedWord], tuple: &[WeightedWord], cins: f64) -> f64 {
    let patterns: Vec<EditPattern> = query.iter().map(|w| EditPattern::new(&w.word)).collect();
    let weights: Vec<f64> = query.iter().map(|w| w.weight).collect();
    transformation_cost_with(
        &weights,
        tuple.len(),
        cins,
        &mut Vec::new(),
        |j| tuple[j].weight,
        |i, j| patterns[i].similarity(&tuple[j].word),
    )
}

/// Equation 3.14 from a transformation cost and the total query weight.
fn normalized_similarity(cost: f64, query_total: f64) -> f64 {
    if query_total <= 0.0 {
        return 0.0;
    }
    1.0 - (cost / query_total).min(1.0)
}

/// GES similarity (Equation 3.14): `1 - min(tc / wt(Q), 1)`.
pub fn ges_similarity(query: &[WeightedWord], tuple: &[WeightedWord], cins: f64) -> f64 {
    let wt_q: f64 = query.iter().map(|w| w.weight).sum();
    normalized_similarity(ges_transformation_cost(query, tuple, cins), wt_q)
}

/// Memo slot of a word id not yet seen in this request.
const UNSEEN: u32 = u32::MAX;

/// Exact GES of one prepared query against corpus records, by word id: the
/// engine's scoring path for [`GesPredicate`] and the filtered variants'
/// re-scoring.
///
/// Query words become [`EditPattern`]s once. The first time a record word id
/// shows up in the request, its weight and its edit similarity to every
/// query word are computed and memoized, so the dynamic program of every
/// later record holding that word only reads arrays. Scores equal
/// [`ges_similarity`] bit for bit over each record's words weighted by their
/// IDF (floored at `1e-6`, as on the query side).
pub(crate) struct GesScorer<'a> {
    corpus: &'a TokenizedCorpus,
    patterns: Vec<EditPattern>,
    query_weights: Vec<f64>,
    /// Σ query weights, the normalizer of Equation 3.14.
    query_total: f64,
    cins: f64,
    /// Per word id: offset of its memo entry, [`UNSEEN`] until first use.
    slots: Vec<u32>,
    /// Memo entries: a word's weight, then its similarity to each query word.
    memo: Vec<f64>,
    /// Memo offsets of the current record's words.
    record: Vec<usize>,
    /// Dynamic-program column, reused across records.
    column: Vec<f64>,
}

impl<'a> GesScorer<'a> {
    pub(crate) fn new(corpus: &'a TokenizedCorpus, query: &[WeightedWord], cins: f64) -> Self {
        GesScorer {
            corpus,
            patterns: query.iter().map(|w| EditPattern::new(&w.word)).collect(),
            query_weights: query.iter().map(|w| w.weight).collect(),
            query_total: query.iter().map(|w| w.weight).sum(),
            cins,
            slots: vec![UNSEEN; corpus.num_word_tokens()],
            memo: Vec::new(),
            record: Vec::new(),
            column: Vec::new(),
        }
    }

    /// GES similarity of the query to the record at `record_idx`.
    pub(crate) fn score(&mut self, record_idx: usize) -> f64 {
        if self.query_total <= 0.0 {
            return 0.0;
        }
        self.record.clear();
        for &id in self.corpus.record_words(record_idx) {
            let slot = &mut self.slots[id as usize];
            if *slot == UNSEEN {
                *slot = u32::try_from(self.memo.len()).expect("memo offsets fit in u32");
                let word = self.corpus.word_dict().token(id);
                // Same weight rule as the query side: never zero.
                self.memo.push(self.corpus.word_idf(id).max(1e-6));
                self.memo.extend(self.patterns.iter().map(|p| p.similarity(word)));
            }
            self.record.push(*slot as usize);
        }
        let (memo, record) = (&self.memo, &self.record);
        let cost = transformation_cost_with(
            &self.query_weights,
            record.len(),
            self.cins,
            &mut self.column,
            |j| memo[record[j]],
            |i, j| memo[record[j] + 1 + i],
        );
        normalized_similarity(cost, self.query_total)
    }
}

/// Build the weighted word-token view of a query string against a corpus:
/// known words get their IDF weight, unknown words the average word IDF
/// (§4.5).
pub fn weighted_query_words(corpus: &TokenizedCorpus, query: &str) -> Vec<WeightedWord> {
    weighted_words_with_avg_idf(
        corpus,
        dasp_text::word_tokens(query).into_iter(),
        corpus.avg_word_idf(),
    )
}

/// The one weighting rule behind every query-side word view: known words get
/// their IDF, unknown words the (caller-supplied, usually precomputed)
/// average word IDF of §4.5. [`weighted_query_words`] and the engine's
/// prepared [`Query`](crate::engine::Query) both go through here, so the
/// rule cannot drift between the two paths.
pub(crate) fn weighted_words_with_avg_idf(
    corpus: &TokenizedCorpus,
    words: impl Iterator<Item = String>,
    avg_idf: f64,
) -> Vec<WeightedWord> {
    words
        .map(|w| {
            let weight = match corpus.word_dict().get(&w) {
                Some(id) => corpus.word_idf(id),
                None => avg_idf,
            };
            // Never assign a zero weight: a word occurring in every tuple
            // would otherwise be free to delete, which degenerates the score.
            WeightedWord::new(w, weight.max(1e-6))
        })
        .collect()
}

/// The exact GES predicate: scores every tuple with Equation 3.14 (used by
/// the paper for all GES accuracy numbers).
///
/// GES is the one predicate with no relational realization at all — the
/// paper computes it with a UDF because the word-alignment dynamic program
/// cannot be expressed as joins — so it is also the only predicate that does
/// not execute through a prepared `IndexJoin` plan: it scores every tuple
/// natively from the corpus word ids through a per-query `GesScorer`
/// memo. [`Exec::TopK`] selects with
/// the bounded heap instead of a full sort; [`Exec::Threshold`] filters
/// during scoring. Use [`super::GesJaccardPredicate`] /
/// [`super::GesApxPredicate`] for the index-filtered realizations.
pub struct GesPredicate {
    shared: Arc<SharedArtifacts>,
}

impl GesPredicate {
    /// Standalone construction over a corpus (prefer the engine).
    pub fn build(corpus: Arc<TokenizedCorpus>, params: GesParams) -> Self {
        let params = crate::params::Params { ges: params, ..Default::default() };
        Self::from_shared(SharedArtifacts::build(corpus, &params))
    }

    /// Phase-2 preprocessing: none; the corpus word ids are all it reads.
    pub(crate) fn from_shared(shared: Arc<SharedArtifacts>) -> Self {
        GesPredicate { shared }
    }

    fn engine_shared(&self) -> &SharedArtifacts {
        &self.shared
    }

    fn engine_catalog(&self) -> Option<&relq::Catalog> {
        None
    }

    fn execute(
        &self,
        query: &Query,
        exec: Exec,
        _naive: bool,
        limits: Option<&relq::ExecLimits>,
    ) -> crate::error::Result<Vec<ScoredTid>> {
        let query_words = query.weighted_words();
        if query_words.is_empty() {
            return Ok(Vec::new());
        }
        let corpus = self.shared.corpus();
        let mut scorer = GesScorer::new(corpus, query_words, self.shared.params().ges.cins);
        let mut out = Vec::with_capacity(corpus.num_records());
        for (idx, record) in corpus.corpus().records().iter().enumerate() {
            // Budget boundary: one candidate per corpus record scored.
            // Scores already pushed are exact, so breaking leaves a valid
            // anytime answer.
            if let Some(limits) = limits {
                if !limits.charge_candidate() {
                    break;
                }
            }
            let sim = scorer.score(idx);
            if sim > 0.0 {
                out.push(ScoredTid::new(record.tid, sim));
            }
        }
        Ok(finalize_ranking(out, exec))
    }
}

crate::engine::engine_predicate!(GesPredicate, crate::predicate::PredicateKind::Ges);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;
    use dasp_text::QgramConfig;

    fn ww(pairs: &[(&str, f64)]) -> Vec<WeightedWord> {
        pairs.iter().map(|(w, x)| WeightedWord::new(*w, *x)).collect()
    }

    #[test]
    fn identical_strings_have_similarity_one() {
        let q = ww(&[("MORGAN", 2.0), ("STANLEY", 3.0)]);
        assert_eq!(ges_transformation_cost(&q, &q, 0.5), 0.0);
        assert_eq!(ges_similarity(&q, &q, 0.5), 1.0);
    }

    #[test]
    fn deleting_all_query_words_costs_their_weight() {
        let q = ww(&[("A", 1.0), ("B", 2.0)]);
        let empty: Vec<WeightedWord> = Vec::new();
        assert_eq!(ges_transformation_cost(&q, &empty, 0.5), 3.0);
        assert_eq!(ges_similarity(&q, &empty, 0.5), 0.0);
    }

    #[test]
    fn insertion_uses_cins_factor() {
        let q = ww(&[("A", 1.0)]);
        let d = ww(&[("A", 1.0), ("B", 2.0)]);
        // Keep A (free) and insert B at cost 0.5 * 2.
        assert!((ges_transformation_cost(&q, &d, 0.5) - 1.0).abs() < 1e-12);
        assert!((ges_similarity(&q, &d, 0.5) - 0.0).abs() < 1e-12);
        // With a cheaper insertion factor the similarity improves.
        assert!(ges_similarity(&q, &d, 0.1) > ges_similarity(&q, &d, 0.9));
    }

    #[test]
    fn replacement_cost_scales_with_edit_similarity() {
        let q = ww(&[("STANLEY", 2.0)]);
        let close = ww(&[("STALNEY", 2.0)]);
        let far = ww(&[("VALLEY", 2.0)]);
        let sim_close = ges_similarity(&q, &close, 0.5);
        let sim_far = ges_similarity(&q, &far, 0.5);
        assert!(sim_close > sim_far);
        assert!(sim_close > 0.5);
    }

    #[test]
    fn token_swap_hurts_ges_as_in_the_paper() {
        // Paper §5.4: GES cannot capture token swaps because it respects word
        // order; "Hotel Beijing" scores lower against "Beijing Hotel" than an
        // exact copy does.
        let q = ww(&[("BEIJING", 2.0), ("HOTEL", 1.0)]);
        let swapped = ww(&[("HOTEL", 1.0), ("BEIJING", 2.0)]);
        let exact = ges_similarity(&q, &q, 0.5);
        let swap = ges_similarity(&q, &swapped, 0.5);
        assert!(swap < exact);
    }

    use crate::predicate::Predicate;

    #[test]
    fn predicate_ranks_edit_variant_above_unrelated() {
        let corpus = Arc::new(TokenizedCorpus::build(
            Corpus::from_strings(vec![
                "Morgan Stanley Group Incorporated",
                "Morgan Stanle Grop Incorporated",
                "Silicon Valley Group Incorporated",
                "Beijing Hotel",
            ]),
            QgramConfig::new(2),
        ));
        let p = GesPredicate::build(corpus, GesParams::default());
        let ranking = p.rank("Morgan Stanley Group Incorporated");
        assert_eq!(ranking[0].tid, 0);
        let pos_typo = ranking.iter().position(|s| s.tid == 1).unwrap();
        let pos_valley = ranking.iter().position(|s| s.tid == 2).unwrap();
        assert!(pos_typo < pos_valley);
    }

    #[test]
    fn unknown_query_words_get_average_idf() {
        let corpus = Arc::new(TokenizedCorpus::build(
            Corpus::from_strings(vec!["alpha beta", "gamma delta"]),
            QgramConfig::new(2),
        ));
        let words = weighted_query_words(&corpus, "alpha zzzz");
        assert_eq!(words.len(), 2);
        assert!(words[1].weight > 0.0);
    }

    /// The full-matrix GES dynamic program with edit similarity from the
    /// two-row character DP: the reference both scoring paths must match.
    fn reference_ges(query: &[WeightedWord], tuple: &[WeightedWord], cins: f64) -> f64 {
        let sim = |a: &str, b: &str| {
            let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
            let max_len = a.len().max(b.len());
            if max_len == 0 {
                return 1.0;
            }
            1.0 - dasp_text::edit::edit_distance_chars(&a, &b) as f64 / max_len as f64
        };
        let (n, m) = (query.len(), tuple.len());
        let mut dp = vec![vec![0.0f64; m + 1]; n + 1];
        for i in 1..=n {
            dp[i][0] = dp[i - 1][0] + query[i - 1].weight;
        }
        for j in 1..=m {
            dp[0][j] = dp[0][j - 1] + cins * tuple[j - 1].weight;
        }
        for i in 1..=n {
            for j in 1..=m {
                let delete = dp[i - 1][j] + query[i - 1].weight;
                let insert = dp[i][j - 1] + cins * tuple[j - 1].weight;
                let replace = dp[i - 1][j - 1]
                    + (1.0 - sim(&query[i - 1].word, &tuple[j - 1].word)) * query[i - 1].weight;
                dp[i][j] = delete.min(insert).min(replace);
            }
        }
        let wt_q: f64 = query.iter().map(|w| w.weight).sum();
        if wt_q <= 0.0 {
            return 0.0;
        }
        1.0 - (dp[n][m] / wt_q).min(1.0)
    }

    #[test]
    fn id_memo_scorer_equals_string_ges_by_score_bits() {
        use dasp_datagen::presets::{cu_dataset_sized, cu_spec, dblp_dataset};
        let datasets = [
            dblp_dataset(300),
            cu_dataset_sized(cu_spec("CU1").unwrap(), 300, 60),
            cu_dataset_sized(cu_spec("CU8").unwrap(), 300, 60),
        ];
        for dataset in &datasets {
            let strings = dataset.strings();
            let corpus = TokenizedCorpus::build(
                Corpus::from_strings(strings.iter().map(String::as_str)),
                QgramConfig::new(2),
            );
            // Record texts, one with a word unseen in the base, one with a
            // non-ASCII word (the edit kernel's fallback), and the empty query.
            let mut queries: Vec<String> = strings.iter().step_by(41).cloned().collect();
            queries.push(format!("{} Zzqx", strings[7]));
            queries.push(format!("Caf\u{e9} {}", strings[11]));
            queries.push(String::new());
            for (q, cins) in queries.iter().zip([0.5, 0.25, 1.0].into_iter().cycle()) {
                let query = weighted_query_words(&corpus, q);
                let mut scorer = GesScorer::new(&corpus, &query, cins);
                for idx in 0..corpus.num_records() {
                    let tuple: Vec<WeightedWord> = corpus
                        .record_words(idx)
                        .iter()
                        .map(|&id| {
                            WeightedWord::new(
                                corpus.word_dict().token(id),
                                corpus.word_idf(id).max(1e-6),
                            )
                        })
                        .collect();
                    let public = ges_similarity(&query, &tuple, cins);
                    assert_eq!(scorer.score(idx).to_bits(), public.to_bits(), "{q:?} idx {idx}");
                    assert_eq!(
                        public.to_bits(),
                        reference_ges(&query, &tuple, cins).to_bits(),
                        "{q:?} idx {idx}"
                    );
                }
            }
        }
    }

    #[test]
    fn similarity_is_bounded() {
        let q = ww(&[("A", 1.0), ("BB", 0.5), ("CCC", 2.0)]);
        let d = ww(&[("XX", 1.0), ("A", 1.0)]);
        for cins in [0.0, 0.25, 0.5, 1.0] {
            let s = ges_similarity(&q, &d, cins);
            assert!((0.0..=1.0).contains(&s), "cins={cins} s={s}");
        }
    }
}
