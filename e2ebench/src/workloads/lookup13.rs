//! `lookup13`: the paper's §5.5 query mix. A static `SelectionEngine` over
//! DBLP-10k answers every one of the 13 predicates on each seeded query
//! text with `Exec::TopK(10)`, one closed-loop client. Texts are distinct by
//! string (DBLP carries exact duplicate copies), so the result cache never
//! answers: the workload loads the exhaustive relq aggregates and the UDF
//! verification stage, and nearly bypasses the cache, the posting lists and
//! the serve overhead.

use super::{
    closed_loop, closed_loop_clients, cluster_members, hit_probes, read_layer_metrics,
    read_summary, repeated_setup, setup_layer_metrics, stratified_texts, tracing_overhead,
    verify_all, write_spans, Config, EndToEnd, ReadTrace, Served, SetupTimes, Tally, WorkCounts,
    BOUNDED, K, UNREACHED_CAP,
};
use crate::check::{byte_identical, tie_class_equal, well_formed, Check};
use crate::report::Outcome;
use crate::stats;
use crate::trace::Tracer;
use dasp_core::{
    Corpus, Exec, Params, PredicateKind, SelectionEngine, ServeRequest, ServingEngine,
};
use dasp_datagen::Dataset;
use std::collections::{HashMap, HashSet};

/// Sizes of one scale of the workload.
struct Scale {
    corpus: usize,
    setup_reps: usize,
    /// Texts whose requests are replayed for the work counters.
    work_texts: usize,
}

const FULL: Scale = Scale { corpus: 10_000, setup_reps: 3, work_texts: 2 };
const SMOKE: Scale = Scale { corpus: 300, setup_reps: 1, work_texts: 1 };

/// Length strata of the text draw. Text length drives the cost of every
/// predicate (its correlation with the summed 13-predicate latency is 0.85
/// on DBLP-10k), so each round of the stream takes one text from each
/// stratum: every seed's run then has the same length profile, and the
/// figures do not depend on which texts a seed happened to draw.
const STRATA: usize = 30;

/// Nominal seconds per round (`STRATA` texts × 13 predicates) on the
/// reference host (2 cores): a run is `ceil(seconds / ROUND_SECONDS)`
/// rounds.
const ROUND_SECONDS: f64 = 15.0;

/// The record whose text first-touches every predicate during set-up; it is
/// excluded from the request stream so set-up leaves nothing in the cache
/// that a request could hit.
const TOUCH_RECORD: usize = 0;

/// The workload's inputs: the corpus and the seeded query texts.
struct Inputs {
    dataset: Dataset,
    /// Record indices with pairwise distinct texts, in request order: round
    /// `r` is `texts[r * STRATA..(r + 1) * STRATA]`, one text per stratum.
    texts: Vec<usize>,
    members: HashMap<u32, Vec<u32>>,
}

impl Inputs {
    fn new(corpus: usize, seed: u64) -> Self {
        let dataset = dasp_datagen::presets::dblp_dataset(corpus);
        let texts = stratified_texts(&dataset, seed, 1, TOUCH_RECORD, STRATA);
        let members = cluster_members(&dataset);
        Inputs { dataset, texts, members }
    }

    fn request(&self, i: usize) -> ServeRequest {
        let kind = PredicateKind::all()[i % PredicateKind::COUNT];
        ServeRequest::new(kind, self.text(i), Exec::TopK(K))
    }

    fn text(&self, i: usize) -> &str {
        &self.dataset.records[self.texts[i / PredicateKind::COUNT]].text
    }

    /// Every record of the cluster request `i`'s text was drawn from.
    fn relevant(&self, i: usize) -> HashSet<u32> {
        let cluster = self.dataset.records[self.texts[i / PredicateKind::COUNT]].cluster;
        self.members[&cluster].iter().copied().collect()
    }

    /// The run's requests: whole rounds, as many as the requested seconds
    /// take at the nominal rate.
    fn ops(&self, config: &Config) -> usize {
        let rounds = config.nominal_ops(1.0 / ROUND_SECONDS).min(self.texts.len() / STRATA);
        rounds * STRATA * PredicateKind::COUNT
    }

    /// Build the engine and first-touch all 13 predicates.
    fn setup(&self, tracer: Option<&mut Tracer>) -> (ServingEngine, SetupTimes) {
        let strings = self.dataset.strings();
        let touch = &self.dataset.records[TOUCH_RECORD].text;
        let (engine, times) = SetupTimes::measure(
            PredicateKind::all(),
            || SelectionEngine::from_corpus(Corpus::from_strings(strings), &Params::default()),
            |engine, kind| {
                engine
                    .predicate(kind)
                    .execute(&engine.query(touch), Exec::TopK(K))
                    .expect("first touch over the engine's own corpus");
            },
            tracer,
        );
        (ServingEngine::new(engine, 1), times)
    }
}

/// Compare every served answer against `Exec::Rank` truncated to k: byte
/// identity for the eight unbounded predicates, tie-class equality at the
/// k boundary for the five bounded ones.
fn verify(
    engine: &SelectionEngine,
    served: &[Served],
    tally: &mut Tally,
    tracer: Option<&mut Tracer>,
) {
    let check = |_: &mut (), s: &Served| -> Check {
        let got = s.results().map_err(|e| e.to_string())?;
        well_formed(got, K)?;
        let kind = s.request.kind;
        let rank = engine
            .predicate(kind)
            .execute(&engine.query(&s.request.text), Exec::Rank)
            .map_err(|e| format!("reference failed: {e}"))?;
        let expected = &rank[..K.min(rank.len())];
        if BOUNDED.contains(&kind) {
            tie_class_equal(got, expected, Some(&rank))
        } else {
            byte_identical(got, expected)
        }
    };
    verify_all(served, |s| s.request.kind.index(), || (), check, tally, tracer);
}

/// Run the workload.
pub fn run(config: &Config) -> Outcome {
    let scale = if config.smoke { &SMOKE } else { &FULL };
    let inputs = Inputs::new(scale.corpus, config.seed);
    let ops = inputs.ops(config);
    let request = |i: usize| inputs.request(i);
    let mut outcome = Outcome::default();
    let mut tally = Tally::default();

    if !config.trace {
        let (serving, setup_s) = repeated_setup(scale.setup_reps, || inputs.setup(None));
        let before = stats::cpu_steal();
        let (served, wall) = closed_loop(&serving, request, ops, None);
        let steal = stats::steal_share(before, stats::cpu_steal());
        let rss_mb = stats::peak_rss_mb().unwrap_or(0.0);
        let engine = serving.engine().expect("static backend");
        verify(engine, &served, &mut tally, None);
        let map = read_summary(&served, |i| inputs.relevant(i), &mut outcome);
        let hits = served.iter().filter(|s| s.response.stats.cache_hit).count();
        outcome.note(format!("cache_hits={hits} of reads={}", served.len()));
        let read_latencies = served.iter().map(|s| s.latency).collect();
        EndToEnd { setup_s, ops: served.len(), wall, read_latencies, rss_mb, map, steal }
            .report(&mut outcome, &tally);
        tally.finish(&mut outcome);
        return outcome;
    }

    // Untraced baseline exactly as in an untraced run (after the same
    // set-ups, so the process heap is as warm), then the same requests from
    // two clients, then traced — each on a fresh engine, so all three start
    // from the same cold engine state.
    let (serving, _) = repeated_setup(scale.setup_reps, || inputs.setup(None));
    let (baseline, wall_untraced) = closed_loop(&serving, request, ops, None);
    drop((serving, baseline));
    let (serving, _) = inputs.setup(None);
    let wall_two = closed_loop_clients(&serving, request, ops, 2);
    drop(serving);

    let mut tracer = Tracer::default();
    let (serving, times) = inputs.setup(Some(&mut tracer));
    let engine = serving.engine().expect("static backend").clone();
    let prepare = |text: &str| {
        std::hint::black_box(engine.query(text));
    };
    let cache = || engine.result_cache_stats();
    let mut hooks =
        ReadTrace { tracer: &mut tracer, prepare: &prepare, cache: &cache, hits: 0, misses: 0 };
    let (served, wall_traced) = closed_loop(&serving, request, ops, Some(&mut hooks));
    let counts = (hooks.hits, hooks.misses);
    verify(&engine, &served, &mut tally, Some(&mut tracer));

    let mut work = WorkCounts::default();
    for s in served.iter().take(scale.work_texts * PredicateKind::COUNT) {
        let query = engine.query(&s.request.text);
        let run = engine.predicate(s.request.kind).execute_budgeted(
            &query,
            s.request.exec,
            UNREACHED_CAP,
        );
        work.add(s.request.kind, run.ok().and_then(|r| r.report));
    }

    let probes = hit_probes(&serving, &served);

    setup_layer_metrics(&mut outcome, &times);
    read_layer_metrics(&mut outcome, &tracer, &served, &probes, counts);
    outcome.metric(
        "serve.scaling_2c",
        wall_untraced.as_secs_f64() / wall_two.as_secs_f64(),
        "ratio",
    );
    work.report(&mut outcome);
    tracing_overhead(&mut outcome, wall_untraced, wall_traced);
    tally.finish(&mut outcome);
    write_spans(&mut outcome, config, &tracer);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use dasp_core::{DaspError, ScoredTid};

    #[test]
    fn corrupted_answers_count_as_failures() {
        let inputs = Inputs::new(SMOKE.corpus, 5);
        let (serving, _) = inputs.setup(None);
        let ops = 2 * PredicateKind::COUNT;
        let (mut served, _) = closed_loop(&serving, |i| inputs.request(i), ops, None);
        let engine = serving.engine().expect("static backend");
        let mut tally = Tally::default();
        verify(engine, &served, &mut tally, None);
        assert_eq!((tally.attempted, tally.failed), (ops as u64, 0));

        let bm25 = PredicateKind::Bm25.index();
        let ges = PredicateKind::Ges.index();
        let corrupt =
            |rows: &mut Vec<ScoredTid>| rows[0].score = f64::from_bits(rows[0].score.to_bits() - 1);
        served[bm25].response.results.as_mut().map(corrupt).expect("served");
        served[ges].response.results.as_mut().map(corrupt).expect("served");
        served[0].response.results = Err(DaspError::EngineMismatch);
        let mut tally = Tally::default();
        verify(engine, &served, &mut tally, None);
        assert_eq!((tally.attempted, tally.failed), (ops as u64, 3));
    }
}
