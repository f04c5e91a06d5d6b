//! `live-ingest`: writes beside reads on one live engine. A `LiveEngine`
//! seeded with the first 10k records of DBLP-12k is served through
//! `ServingEngine::new_live`; one client thread runs a fixed seeded
//! schedule. Each cycle appends four of the remaining records, deletes one
//! seeded live tid, and interleaves eight `TopK(10)` reads on BM25, Cosine,
//! Jaccard and HMM; a compaction sits at fixed cycles. Reads pay the lazy
//! tail-artifact builds after each append, so work moved between the read
//! and the write path shows in read `p99_ms` or in write latency. No writer
//! races the reader, so every read sees a fixed epoch and answers repeat
//! exactly for a seed.

use super::{
    average_precision, hit_probes, kind_name, read_layer_metrics, repeated_setup, serve_one,
    setup_layer_metrics, tracing_overhead, write_spans, Config, Digests, EndToEnd, ReadTrace,
    Served, SetupTimes, Tally, WorkCounts, K, UNREACHED_CAP,
};
use crate::check::{tie_class_equal, well_formed, Check};
use crate::report::Outcome;
use crate::rng::SplitMix64;
use crate::stats;
use crate::trace::Tracer;
use dasp_core::{
    Corpus, Exec, LiveEngine, Params, PredicateKind, ScoredTid, SelectionEngine, ServeRequest,
    ServingEngine, Tid,
};
use dasp_datagen::Dataset;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sizes of one scale of the workload.
struct Scale {
    corpus: usize,
    seeded: usize,
    /// A checkpoint compares against a rebuilt monolith every this many
    /// cycles.
    check_every: usize,
    /// A compaction ends every this many cycles.
    compact_every: usize,
    setup_reps: usize,
    /// Reads replayed for the work counters.
    work: usize,
}

const FULL: Scale = Scale {
    corpus: 12_000,
    seeded: 10_000,
    check_every: 20,
    compact_every: 100,
    setup_reps: 3,
    work: 100,
};
const SMOKE: Scale =
    Scale { corpus: 400, seeded: 300, check_every: 2, compact_every: 2, setup_reps: 1, work: 10 };

/// Nominal schedule cycles per second on the reference host (2 cores): a
/// run is `ceil(seconds * CYCLES_PER_SECOND)` cycles.
const CYCLES_PER_SECOND: f64 = 12.0;

/// Length strata of the read texts (drawn from the seeded records). Reads
/// rotate through every (kind, stratum) pair every four cycles, so the
/// read-latency tail does not depend on which texts a seed drew.
const READ_STRATA: usize = 8;

/// The predicates the reads use.
const KINDS: [PredicateKind; 4] =
    [PredicateKind::Bm25, PredicateKind::Cosine, PredicateKind::Jaccard, PredicateKind::Hmm];

/// One operation of the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Append,
    Delete,
    /// A read of one kind on a text from one length stratum.
    Read(PredicateKind, usize),
    Compact,
}

/// The ops of one cycle: four appends, each followed by a read, then a
/// delete followed by one read of every kind (all at the delete's epoch,
/// which is where a checkpoint compares them against the monolith).
fn cycle(c: usize, scale: &Scale) -> Vec<Op> {
    let read = |j: usize| Op::Read(KINDS[j % KINDS.len()], (2 * c + j / 4) % READ_STRATA);
    let mut ops = Vec::with_capacity(14);
    for j in 0..4 {
        ops.push(Op::Append);
        ops.push(read(j));
    }
    ops.push(Op::Delete);
    ops.extend((4..8).map(read));
    if (c + 1).is_multiple_of(scale.compact_every) {
        ops.push(Op::Compact);
    }
    ops
}

/// The schedule's inputs.
struct Inputs {
    dataset: Dataset,
    seed: u64,
    /// Seeded record indices by length stratum.
    strata: Vec<Vec<usize>>,
}

impl Inputs {
    fn new(scale: &Scale, seed: u64) -> Self {
        let dataset = dasp_datagen::presets::dblp_dataset(scale.corpus);
        let mut by_length: Vec<usize> = (0..scale.seeded).collect();
        by_length.sort_by_key(|&i| (dataset.records[i].text.len(), i));
        let size = scale.seeded.div_ceil(READ_STRATA);
        let strata = by_length.chunks(size).map(<[usize]>::to_vec).collect();
        Inputs { dataset, seed, strata }
    }

    fn setup(&self, scale: &Scale, tracer: Option<&mut Tracer>) -> (ServingEngine, SetupTimes) {
        let strings: Vec<String> = self.dataset.strings().into_iter().take(scale.seeded).collect();
        let touch = &self.dataset.records[0].text;
        let (engine, times) = SetupTimes::measure(
            &KINDS,
            || LiveEngine::from_corpus(Corpus::from_strings(strings), &Params::default()),
            |engine, kind| {
                engine.execute(kind, touch, Exec::TopK(K)).expect("first touch");
            },
            tracer,
        );
        (ServingEngine::new_live(Arc::new(engine), 1), times)
    }
}

/// The live corpus as the schedule has shaped it.
struct Model {
    /// Dataset record behind each global tid.
    record_of: Vec<usize>,
    alive: Vec<bool>,
    live_tids: Vec<Tid>,
    /// Every tid ever assigned, by the cluster of its record.
    tids_by_cluster: HashMap<u32, Vec<Tid>>,
}

impl Model {
    fn new(dataset: &Dataset, seeded: usize) -> Self {
        let mut model = Model {
            record_of: Vec::new(),
            alive: Vec::new(),
            live_tids: Vec::new(),
            tids_by_cluster: HashMap::new(),
        };
        for record in 0..seeded {
            model.push(dataset, record);
        }
        model
    }

    /// Track record `record` as the next appended tid.
    fn push(&mut self, dataset: &Dataset, record: usize) -> Tid {
        let tid = self.record_of.len() as Tid;
        self.record_of.push(record);
        self.alive.push(true);
        self.live_tids.push(tid);
        self.tids_by_cluster.entry(dataset.records[record].cluster).or_default().push(tid);
        tid
    }

    /// Relevant tids of a read drawn from `record`: the live tids of its
    /// cluster.
    fn relevant(&self, dataset: &Dataset, record: usize) -> HashSet<u32> {
        self.tids_by_cluster[&dataset.records[record].cluster]
            .iter()
            .copied()
            .filter(|&tid| self.alive[tid as usize])
            .collect()
    }
}

/// What one pass over the schedule observed.
#[derive(Default)]
struct Phase {
    ops: usize,
    wall: Duration,
    reads: Vec<Served>,
    write_latencies: Vec<Duration>,
    /// Latency of each read that directly follows a write.
    post_write: Vec<Duration>,
    compactions: Vec<Duration>,
    sealed_segments: Vec<f64>,
    aps: Vec<f64>,
    digests: Digests,
    work: WorkCounts,
}

/// Read-side hooks of the traced pass.
struct Traced<'a, 'b> {
    hooks: &'a mut ReadTrace<'b>,
    work_left: usize,
}

/// The check of one live read: a well-formed answer with no deleted tid
/// and, at a checkpoint, tie-class equality with the same request on the
/// monolith rebuilt at the read's epoch (`reference`, with its map from
/// dense to global tids).
fn check_read(
    served: &Served,
    alive: &[bool],
    reference: Option<&(SelectionEngine, Vec<Tid>)>,
) -> Check {
    let got = served.results().map_err(|e| e.to_string())?;
    well_formed(got, K)?;
    if let Some(dead) = got.iter().find(|s| !alive.get(s.tid as usize).copied().unwrap_or(false)) {
        return Err(format!("tid {} is not live", dead.tid));
    }
    let Some((mono, map)) = reference else { return Ok(()) };
    let truth: Vec<ScoredTid> = mono
        .predicate(served.request.kind)
        .execute(&mono.query(&served.request.text), Exec::Rank)
        .map_err(|e| format!("reference failed: {e}"))?
        .into_iter()
        .map(|s| ScoredTid::new(map[s.tid as usize], s.score))
        .collect();
    tie_class_equal(got, &truth[..K.min(truth.len())], Some(&truth))
}

/// Run the first `ops` operations of the schedule, checking every one into
/// `tally`. Checkpoints, checks and replays run with the clock stopped.
fn pass(
    inputs: &Inputs,
    scale: &Scale,
    serving: &ServingEngine,
    ops: usize,
    tally: &mut Tally,
    mut traced: Option<Traced<'_, '_>>,
) -> Phase {
    let live = serving.live().expect("live backend").clone();
    let mut model = Model::new(&inputs.dataset, scale.seeded);
    let mut phase = Phase::default();
    let mut reference: Option<(SelectionEngine, Vec<Tid>)> = None;
    let mut after_write = false;
    let started = Instant::now();
    let mut paused = Duration::ZERO;
    'schedule: for c in 0.. {
        for op in cycle(c, scale) {
            if phase.ops == ops {
                break 'schedule;
            }
            let id = phase.ops as u64;
            let mut tracer = traced.as_mut().map(|t| &mut *t.hooks.tracer);
            match op {
                Op::Append => {
                    let appended = model.record_of.len() - scale.seeded;
                    let record = (scale.seeded + appended) % inputs.dataset.len();
                    let text = inputs.dataset.records[record].text.clone();
                    let expected = model.push(&inputs.dataset, record);
                    let start = Instant::now();
                    let tid = live.append(text.as_str());
                    let end = Instant::now();
                    if let Some(t) = tracer.as_deref_mut() {
                        t.record("live.append", start, end, None, Some(id));
                    }
                    phase.write_latencies.push(end - start);
                    let check = if tid == expected {
                        Ok(())
                    } else {
                        Err(format!("append returned tid {tid}, expected {expected}"))
                    };
                    tally.count(&format!("append {text:?}"), check);
                    phase.digests.requests.str("append");
                    phase.digests.requests.str(&text);
                    phase.digests.answers.u64(u64::from(tid));
                    reference = None;
                    after_write = true;
                }
                Op::Delete => {
                    let mut rng = SplitMix64::new(inputs.seed ^ 0xde1e7e, id);
                    let tid = model.live_tids.swap_remove(rng.below(model.live_tids.len()));
                    let start = Instant::now();
                    let deleted = live.delete(tid);
                    let end = Instant::now();
                    if let Some(t) = tracer.as_deref_mut() {
                        t.record("live.delete", start, end, None, Some(id));
                    }
                    phase.write_latencies.push(end - start);
                    model.alive[tid as usize] = false;
                    let check =
                        if deleted { Ok(()) } else { Err("delete found no live record".into()) };
                    tally.count(&format!("delete {tid}"), check);
                    phase.digests.requests.str("delete");
                    phase.digests.requests.u64(u64::from(tid));
                    phase.digests.answers.u64(u64::from(deleted));
                    reference = None;
                    after_write = true;
                    if c.is_multiple_of(scale.check_every) {
                        let paused_at = Instant::now();
                        let rebuild = match tracer.as_deref_mut() {
                            Some(t) => t.time("verify", Some(id), || live.rebuild_monolith()),
                            None => live.rebuild_monolith(),
                        };
                        let mut expected_tids = model.live_tids.clone();
                        expected_tids.sort_unstable();
                        let check = if rebuild.1 == expected_tids {
                            Ok(())
                        } else {
                            Err("live records differ from the schedule's".to_string())
                        };
                        tally.invariant(&format!("checkpoint after op {id}"), check);
                        reference = Some(rebuild);
                        paused += paused_at.elapsed();
                    }
                }
                Op::Compact => {
                    let start = Instant::now();
                    live.compact();
                    let end = Instant::now();
                    if let Some(t) = tracer {
                        t.record("live.compact", start, end, None, Some(id));
                    }
                    phase.compactions.push(end - start);
                    tally.count("compact", Ok(()));
                    phase.digests.requests.str("compact");
                    reference = None;
                }
                Op::Read(kind, stratum) => {
                    let mut rng = SplitMix64::new(inputs.seed ^ 0x4ead, id);
                    let stratum = &inputs.strata[stratum];
                    let record = stratum[rng.below(stratum.len())];
                    let request = ServeRequest::new(
                        kind,
                        inputs.dataset.records[record].text.clone(),
                        Exec::TopK(K),
                    );
                    let served = match traced.as_mut() {
                        Some(t) => t.hooks.serve(serving, request, id),
                        None => serve_one(serving, request).0,
                    };
                    let paused_at = Instant::now();
                    if after_write {
                        phase.post_write.push(served.latency);
                        after_write = false;
                    }
                    let check = || check_read(&served, &model.alive, reference.as_ref());
                    let check = match (&reference, traced.as_mut()) {
                        (Some(_), Some(t)) => t.hooks.tracer.time("verify", Some(id), check),
                        _ => check(),
                    };
                    tally.count(
                        &format!("read {id} {} {:?}", kind_name(kind), served.request.text),
                        check,
                    );
                    phase.digests.read(&served);
                    let relevant = model.relevant(&inputs.dataset, record);
                    phase.aps.push(
                        served.results().map_or(0.0, |rows| average_precision(rows, &relevant)),
                    );
                    if let Some(t) = traced.as_mut() {
                        phase.sealed_segments.push(live.metrics().sealed_segments as f64);
                        if t.work_left > 0 {
                            t.work_left -= 1;
                            let run = live.execute_budgeted(
                                kind,
                                &served.request.text,
                                Exec::TopK(K),
                                UNREACHED_CAP,
                            );
                            phase.work.add(kind, run.ok().and_then(|(r, _)| r.report));
                        }
                    }
                    phase.reads.push(served);
                    paused += paused_at.elapsed();
                }
            }
            phase.ops += 1;
        }
    }
    phase.wall = started.elapsed() - paused;
    phase
}

/// Run the workload.
pub fn run(config: &Config) -> Outcome {
    let scale = if config.smoke { &SMOKE } else { &FULL };
    let inputs = Inputs::new(scale, config.seed);
    let cycles = config.nominal_ops(CYCLES_PER_SECOND);
    let ops: usize = (0..cycles).map(|c| cycle(c, scale).len()).sum();
    let mut outcome = Outcome::default();
    let mut tally = Tally::default();

    if !config.trace {
        let (serving, setup_s) = repeated_setup(scale.setup_reps, || inputs.setup(scale, None));
        let before = stats::cpu_steal();
        let phase = pass(&inputs, scale, &serving, ops, &mut tally, None);
        let steal = stats::steal_share(before, stats::cpu_steal());
        let rss_mb = stats::peak_rss_mb().unwrap_or(0.0);
        outcome.note(phase.digests.note());
        let hits = phase.reads.iter().filter(|s| s.response.stats.cache_hit).count();
        outcome.note(format!(
            "cache_hits={hits} of reads={} writes={} compactions={}",
            phase.reads.len(),
            phase.write_latencies.len(),
            phase.compactions.len()
        ));
        let read_latencies = phase.reads.iter().map(|s| s.latency).collect();
        let map = stats::mean(&phase.aps);
        EndToEnd { setup_s, ops: phase.ops, wall: phase.wall, read_latencies, rss_mb, map, steal }
            .report(&mut outcome, &tally);
        tally.finish(&mut outcome);
        return outcome;
    }

    // Untraced baseline exactly as in an untraced run (after the same
    // set-ups, so the process heap is as warm), then the same schedule
    // traced on a fresh engine.
    let (serving, _) = repeated_setup(scale.setup_reps, || inputs.setup(scale, None));
    let baseline = pass(&inputs, scale, &serving, ops, &mut Tally::default(), None);
    drop(serving);

    let mut tracer = Tracer::default();
    let (serving, times) = inputs.setup(scale, Some(&mut tracer));
    let live = serving.live().expect("live backend").clone();
    let prepare_engine = live.rebuild_monolith().0;
    let prepare = |text: &str| {
        std::hint::black_box(prepare_engine.query(text));
    };
    let cache = || live.result_cache_stats();
    let mut hooks =
        ReadTrace { tracer: &mut tracer, prepare: &prepare, cache: &cache, hits: 0, misses: 0 };
    let traced = Traced { hooks: &mut hooks, work_left: scale.work };
    let phase = pass(&inputs, scale, &serving, ops, &mut tally, Some(traced));
    let counts = (hooks.hits, hooks.misses);
    let probes = hit_probes(&serving, &phase.reads);

    setup_layer_metrics(&mut outcome, &times);
    read_layer_metrics(&mut outcome, &tracer, &phase.reads, &probes, counts);
    let compact: Vec<f64> = phase.compactions.iter().map(|&d| stats::ms(d)).collect();
    if !compact.is_empty() {
        outcome.metric("live.compact_ms", stats::median(&compact), "ms");
    }
    let post_write: Vec<f64> = phase.post_write.iter().map(|&d| stats::ms(d)).collect();
    if !post_write.is_empty() {
        outcome.metric("live.post_write_query_ms", stats::median(&post_write), "ms");
    }
    let probed: Vec<f64> = phase
        .reads
        .iter()
        .filter_map(|s| s.response.stats.live.map(|l| l.segments_probed as f64))
        .collect();
    outcome.metric("live.segments_probed", stats::mean(&probed), "count");
    outcome.metric("live.sealed_segments", stats::mean(&phase.sealed_segments), "count");
    let writes: Vec<f64> = phase.write_latencies.iter().map(|&d| stats::ms(d)).collect();
    if !writes.is_empty() {
        outcome.metric("live.write_p50_ms", stats::median(&writes), "ms");
        outcome.metric("live.write_p99_ms", stats::percentile(&writes, 0.99), "ms");
    }
    phase.work.report(&mut outcome);
    tracing_overhead(&mut outcome, baseline.wall, phase.wall);
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
        let (serving, _) = inputs.setup(&SMOKE, None);
        let live = serving.live().expect("live backend").clone();
        let dead = live.append(inputs.dataset.records[SMOKE.seeded].text.as_str());
        live.delete(dead);
        let mut alive = vec![true; SMOKE.seeded];
        alive.push(false);
        let text = inputs.dataset.records[7].text.clone();
        let (served, _, _) =
            serve_one(&serving, ServeRequest::new(PredicateKind::Bm25, text, Exec::TopK(K)));
        let reference = live.rebuild_monolith();
        assert_eq!(check_read(&served, &alive, Some(&reference)), Ok(()));

        let mut wrong_score = served.clone();
        let rows = wrong_score.response.results.as_mut().expect("served");
        rows[0].score = f64::from_bits(rows[0].score.to_bits() + 1);
        assert!(check_read(&wrong_score, &alive, Some(&reference)).is_err());

        let mut deleted = served.clone();
        deleted.response.results.as_mut().expect("served")[0].tid = dead;
        assert!(check_read(&deleted, &alive, None).is_err());
    }
}
