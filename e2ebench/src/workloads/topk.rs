//! `topk-zipf-sharded`: bounded top-k on a 2-shard DBLP-50k engine. Every
//! request is `Exec::TopK(10)` on one of the five bounded predicates, its
//! text drawn Zipf-skewed (s = 1.1) from a seeded pool of 300 texts, one
//! closed-loop client. The skew keeps the result-cache hit share near two
//! thirds — well away from one half — so the median request is a hit and
//! the 99th percentile a miss. Hits load the result cache and the serve
//! overhead; misses load the block-max posting traversal, the shared θ bar
//! between shards and the shard merge.

use super::{
    closed_loop, cluster_members, hit_probes, read_layer_metrics, read_summary, repeated_setup,
    setup_layer_metrics, stratified_texts, tracing_overhead, verify_all, write_spans, Config,
    EndToEnd, ReadTrace, Served, SetupTimes, Tally, WorkCounts, BOUNDED, CHECK_LANES, K,
    UNREACHED_CAP,
};
use crate::check::{tie_class_equal, well_formed, Check};
use crate::report::Outcome;
use crate::rng::{SplitMix64, Zipf};
use crate::stats;
use crate::trace::Tracer;
use dasp_core::{
    Corpus, Exec, Params, PredicateKind, ScoredTid, ServeRequest, ServingEngine, ShardedEngine,
};
use dasp_datagen::Dataset;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Sizes of one scale of the workload.
struct Scale {
    corpus: usize,
    pool: usize,
    setup_reps: usize,
    /// Requests replayed for the work counters.
    work: usize,
}

const FULL: Scale = Scale { corpus: 50_000, pool: 300, setup_reps: 3, work: 200 };
const SMOKE: Scale = Scale { corpus: 400, pool: 30, setup_reps: 1, work: 20 };

/// Nominal requests per second on the reference host (2 cores): a run is
/// `ceil(seconds * REQUESTS_PER_SECOND)` requests.
const REQUESTS_PER_SECOND: f64 = 470.0;

/// Length strata of the pool: every ten consecutive Zipf ranks hold one
/// text of each, so hot and cold ranks have the same length profile on
/// every seed.
const POOL_STRATA: usize = 10;

/// Zipf exponent of the text draw.
const ZIPF_S: f64 = 1.1;

/// Tid-range shards of the engine.
const SHARDS: usize = 2;

/// The record whose text first-touches each predicate during set-up (kept
/// out of the pool).
const TOUCH_RECORD: usize = 0;

struct Inputs {
    dataset: Dataset,
    seed: u64,
    /// Record indices of the pool's texts (distinct strings), by Zipf rank.
    pool: Vec<usize>,
    zipf: Zipf,
    members: HashMap<u32, Vec<u32>>,
}

impl Inputs {
    fn new(scale: &Scale, seed: u64) -> Self {
        let dataset = dasp_datagen::presets::dblp_dataset(scale.corpus);
        let mut pool = stratified_texts(&dataset, seed, 2, TOUCH_RECORD, POOL_STRATA);
        pool.truncate(scale.pool);
        let members = cluster_members(&dataset);
        let zipf = Zipf::new(pool.len(), ZIPF_S);
        Inputs { dataset, seed, pool, zipf, members }
    }

    /// Request `i`'s pool slot and predicate, a pure function of the seed
    /// and `i` so any phase can replay the stream.
    fn draw(&self, i: usize) -> (usize, PredicateKind) {
        let mut rng = SplitMix64::new(self.seed ^ 0x7a1f_5eed, i as u64);
        let slot = self.zipf.sample(&mut rng);
        (slot, BOUNDED[rng.below(BOUNDED.len())])
    }

    fn request(&self, i: usize) -> ServeRequest {
        let (slot, kind) = self.draw(i);
        ServeRequest::new(kind, self.dataset.records[self.pool[slot]].text.clone(), Exec::TopK(K))
    }

    fn relevant(&self, i: usize) -> HashSet<u32> {
        let cluster = self.dataset.records[self.pool[self.draw(i).0]].cluster;
        self.members[&cluster].iter().copied().collect()
    }

    /// Build the sharded engine and first-touch the five predicates.
    fn setup(&self, tracer: Option<&mut Tracer>) -> (ServingEngine, SetupTimes) {
        let strings = self.dataset.strings();
        let touch = &self.dataset.records[TOUCH_RECORD].text;
        let params = Params { shards: SHARDS, ..Params::default() };
        let (engine, times) = SetupTimes::measure(
            &BOUNDED,
            || ShardedEngine::from_corpus(Corpus::from_strings(strings), &params),
            |engine, kind| {
                engine.execute(kind, touch, Exec::TopK(K)).expect("first touch");
            },
            tracer,
        );
        (ServingEngine::new_sharded(Arc::new(engine), 1), times)
    }
}

/// Distinct requests whose answers are also checked against
/// `Exec::TopKHeap(10)`, the exhaustive heap (42–90 ms per request on this
/// engine, ten times a bounded miss, so not affordable for every request).
const HEAP_CHECKS: usize = 64;

/// Compare every served answer, tie-class-equal at the k boundary, against
/// the same engine's `Exec::Threshold` at the answer's boundary score: every
/// row scoring at least the k-th score, bit-identical to the exhaustive scan
/// by the library's contract. The first `HEAP_CHECKS` distinct requests are
/// compared against `Exec::TopKHeap(10)` as well. References are computed
/// once per distinct request.
fn verify(
    sharded: &ShardedEngine,
    served: &[Served],
    tally: &mut Tally,
    tracer: Option<&mut Tracer>,
) {
    type References = (Vec<ScoredTid>, Option<Vec<ScoredTid>>);
    type Cache = HashMap<(usize, String, u64), Result<References, String>>;
    let check = |references: &mut Cache, s: &Served| -> Check {
        let got = s.results().map_err(|e| e.to_string())?;
        well_formed(got, K)?;
        let (kind, text) = (s.request.kind, &s.request.text);
        let boundary = got.last().map_or(0.0, |r| r.score);
        let heap = references.len() < HEAP_CHECKS / CHECK_LANES;
        let (truth, heap) = references
            .entry((kind.index(), text.clone(), boundary.to_bits()))
            .or_insert_with(|| {
                let reference = |exec| {
                    sharded.execute(kind, text, exec).map_err(|e| format!("reference failed: {e}"))
                };
                let truth = reference(Exec::Threshold(boundary))?;
                Ok((truth, if heap { Some(reference(Exec::TopKHeap(K))?) } else { None }))
            })
            .as_ref()
            .map_err(Clone::clone)?;
        tie_class_equal(got, &truth[..K.min(truth.len())], Some(truth))?;
        match heap {
            Some(heap) => tie_class_equal(got, heap, Some(truth)),
            None => Ok(()),
        }
    };
    // Requests for one text share a lane, so each reference is computed once.
    let lane = |s: &Served| s.request.text.bytes().map(usize::from).sum::<usize>();
    verify_all(served, lane, Cache::new, check, tally, tracer);
}

/// Run the workload.
pub fn run(config: &Config) -> Outcome {
    let scale = if config.smoke { &SMOKE } else { &FULL };
    let inputs = Inputs::new(scale, config.seed);
    let ops = config.nominal_ops(REQUESTS_PER_SECOND);
    let request = |i: usize| inputs.request(i);
    let mut outcome = Outcome::default();
    let mut tally = Tally::default();

    if !config.trace {
        let (serving, setup_s) = repeated_setup(scale.setup_reps, || inputs.setup(None));
        let before = stats::cpu_steal();
        let (served, wall) = closed_loop(&serving, request, ops, None);
        let steal = stats::steal_share(before, stats::cpu_steal());
        let rss_mb = stats::peak_rss_mb().unwrap_or(0.0);
        verify(serving.sharded().expect("sharded backend"), &served, &mut tally, None);
        let map = read_summary(&served, |i| inputs.relevant(i), &mut outcome);
        let hits = served.iter().filter(|s| s.response.stats.cache_hit).count();
        outcome.note(format!(
            "cache_hits={hits} of reads={} hit_share={:.4}",
            served.len(),
            hits as f64 / served.len() as f64
        ));
        let read_latencies = served.iter().map(|s| s.latency).collect();
        EndToEnd { setup_s, ops: served.len(), wall, read_latencies, rss_mb, map, steal }
            .report(&mut outcome, &tally);
        tally.finish(&mut outcome);
        return outcome;
    }

    // Untraced baseline exactly as in an untraced run (after the same
    // set-ups, so the process heap is as warm), then the same requests
    // traced on a fresh engine.
    let (serving, _) = repeated_setup(scale.setup_reps, || inputs.setup(None));
    let (baseline, wall_untraced) = closed_loop(&serving, request, ops, None);
    drop((serving, baseline));

    let mut tracer = Tracer::default();
    let (serving, times) = inputs.setup(Some(&mut tracer));
    let sharded = serving.sharded().expect("sharded backend").clone();
    let monolith = sharded.rebuild_monolith();
    let prepare = |text: &str| {
        std::hint::black_box(monolith.query(text));
    };
    let cache = || sharded.result_cache_stats();
    let mut hooks =
        ReadTrace { tracer: &mut tracer, prepare: &prepare, cache: &cache, hits: 0, misses: 0 };
    let (served, wall_traced) = closed_loop(&serving, request, ops, Some(&mut hooks));
    let counts = (hooks.hits, hooks.misses);
    verify(&sharded, &served, &mut tally, Some(&mut tracer));

    let mut work = WorkCounts::default();
    for s in served.iter().take(scale.work) {
        let run = sharded.execute_budgeted(
            s.request.kind,
            &s.request.text,
            s.request.exec,
            UNREACHED_CAP,
        );
        work.add(s.request.kind, run.ok().and_then(|r| r.report));
    }
    let misses: Vec<f64> = served
        .iter()
        .filter(|s| !s.response.stats.cache_hit)
        .map(|s| stats::ms(s.latency))
        .collect();

    let probes = hit_probes(&serving, &served);

    setup_layer_metrics(&mut outcome, &times);
    read_layer_metrics(&mut outcome, &tracer, &served, &probes, counts);
    if !misses.is_empty() {
        outcome.metric("shard.miss_p50_ms", stats::median(&misses), "ms");
        outcome.metric("shard.miss_p99_ms", stats::percentile(&misses, 0.99), "ms");
    }
    work.report(&mut outcome);
    tracing_overhead(&mut outcome, wall_untraced, wall_traced);
    tally.finish(&mut outcome);
    write_spans(&mut outcome, config, &tracer);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_answers_count_as_failures() {
        let inputs = Inputs::new(&SMOKE, 5);
        let (serving, _) = inputs.setup(None);
        let (mut served, _) = closed_loop(&serving, |i| inputs.request(i), 40, None);
        let sharded = serving.sharded().expect("sharded backend");
        let mut tally = Tally::default();
        verify(sharded, &served, &mut tally, None);
        assert_eq!((tally.attempted, tally.failed), (40, 0));

        // A first row swapped for a tid outside the answer, with its score.
        let rows = served[3].response.results.as_mut().expect("served");
        let outsider = (0..SMOKE.corpus as u32).find(|t| rows.iter().all(|r| r.tid != *t));
        rows[0].tid = outsider.expect("the corpus is larger than k");
        let mut tally = Tally::default();
        verify(sharded, &served, &mut tally, None);
        assert_eq!((tally.attempted, tally.failed), (40, 1));
    }
}
