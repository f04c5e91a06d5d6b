//! The three workloads and the pieces they share: the one-client closed
//! loop over `ServingEngine::serve`, set-up timing, answer accounting, and
//! the end-to-end and per-layer metric tables.

pub mod live;
pub mod lookup13;
pub mod topk;

use crate::check::Check;
use crate::report::{Outcome, END_TO_END, PER_LAYER};
use crate::stats::{self, Digest};
use crate::trace::Tracer;
use dasp_core::{
    CacheStats, DaspError, ExecBudget, PredicateKind, ScoredTid, ServeRequest, ServeResponse,
    ServingEngine,
};
use dasp_datagen::Dataset;
use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

/// The `k` of every `Exec::TopK` request.
pub const K: usize = 10;

/// The five predicates with a score-bounded top-k traversal (monotone token
/// sums); the other eight run the exhaustive heap.
pub const BOUNDED: [PredicateKind; 5] = [
    PredicateKind::IntersectSize,
    PredicateKind::WeightedMatch,
    PredicateKind::Cosine,
    PredicateKind::Bm25,
    PredicateKind::Hmm,
];

/// A candidate cap no request reaches: replaying a request under it runs
/// the budgeted path, which reports the work done, without degrading it.
pub const UNREACHED_CAP: ExecBudget =
    ExecBudget { deadline: None, max_candidates: Some(u32::MAX as usize) };

/// Metric-name form of a predicate kind (the paper's short names).
pub fn kind_name(kind: PredicateKind) -> &'static str {
    use PredicateKind::*;
    match kind {
        IntersectSize => "Xect",
        Jaccard => "Jaccard",
        WeightedMatch => "WM",
        WeightedJaccard => "WJ",
        Cosine => "Cosine",
        Bm25 => "BM25",
        LanguageModel => "LM",
        Hmm => "HMM",
        EditSimilarity => "ED",
        Ges => "GES",
        GesJaccard => "GESJac",
        GesApx => "GESapx",
        SoftTfIdf => "STfIdf",
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All 13 predicates on distinct DBLP-10k texts (the paper's §5.5 mix).
    Lookup13,
    /// Zipf-skewed bounded top-k over a 2-shard DBLP-50k engine.
    TopkZipfSharded,
    /// A seeded read/write schedule on a live engine.
    LiveIngest,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] =
        [Workload::Lookup13, Workload::TopkZipfSharded, Workload::LiveIngest];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Lookup13 => "lookup13",
            Workload::TopkZipfSharded => "topk-zipf-sharded",
            Workload::LiveIngest => "live-ingest",
        }
    }

    /// Parse a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Which workload to run.
    pub workload: Workload,
    /// Seeds every input the run generates.
    pub seed: u64,
    /// Length of the measured phase on the reference host; sets its work.
    pub seconds: f64,
    /// Run the traced variant, which reports per-layer metrics.
    pub trace: bool,
    /// Tiny corpora, for the benchmark's own tests.
    pub smoke: bool,
}

impl Config {
    /// The measured phase's fixed work: the operations a workload completes
    /// in `seconds` at its nominal rate on the reference host (2 cores).
    /// Fixed work makes every run of one seed send the same requests, and
    /// the parent and a change measure the same work.
    pub fn nominal_ops(&self, per_second: f64) -> usize {
        (self.seconds * per_second).ceil().max(1.0) as usize
    }

    /// Where the traced run writes its spans (inside the working directory).
    pub fn trace_path(&self) -> std::path::PathBuf {
        std::path::Path::new(".bench_trace").join(format!(
            "{}-seed{}.jsonl",
            self.workload.name(),
            self.seed
        ))
    }
}

/// Run one workload. The result line holds exactly the end-to-end metrics
/// (untraced) or the per-layer metrics (traced); other figures the run
/// measured are printed as note lines.
pub fn run(config: &Config) -> Outcome {
    let mut outcome = match config.workload {
        Workload::Lookup13 => lookup13::run(config),
        Workload::TopkZipfSharded => topk::run(config),
        Workload::LiveIngest => live::run(config),
    };
    outcome.restrict(if config.trace { &PER_LAYER } else { &END_TO_END });
    outcome
}

/// One served read request and its outside wall time.
#[derive(Debug, Clone)]
pub struct Served {
    /// The request as sent.
    pub request: ServeRequest,
    /// Outside wall time of the `serve` call.
    pub latency: Duration,
    /// The response, answer and accounting.
    pub response: ServeResponse,
}

impl Served {
    /// The answer rows, or the error.
    pub fn results(&self) -> Result<&[ScoredTid], &DaspError> {
        self.response.results.as_ref().map(Vec::as_slice)
    }
}

/// Send one request and wait for its reply, timing it from outside.
pub fn serve_one(serving: &ServingEngine, request: ServeRequest) -> (Served, Instant, Instant) {
    let start = Instant::now();
    let response = serving
        .serve(std::slice::from_ref(&request))
        .pop()
        .expect("serve answers every request it is given");
    let end = Instant::now();
    (Served { request, latency: end - start, response }, start, end)
}

/// Requests re-served after a traced phase to time result-cache hits.
const HIT_PROBES: usize = 16;

/// Re-serve the last `HIT_PROBES` distinct requests of a phase twice each
/// and return the second replies, which the result cache answers (the first
/// re-serve refills an entry a write or an eviction removed). Gives
/// `cache.hit_us` samples on workloads whose own requests never hit.
pub fn hit_probes(serving: &ServingEngine, served: &[Served]) -> Vec<Served> {
    let mut seen = HashSet::new();
    let mut probes = Vec::with_capacity(HIT_PROBES);
    for s in served.iter().rev() {
        if probes.len() == HIT_PROBES {
            break;
        }
        if seen.insert((s.request.kind.index(), s.request.text.as_str())) {
            serve_one(serving, s.request.clone());
            probes.push(serve_one(serving, s.request.clone()).0);
        }
    }
    probes
}

/// Per-layer observation hooks of a traced read phase: spans around each
/// request, query preparation timed on an engine of the same corpus, and
/// result-cache counters read around each `serve` call.
pub struct ReadTrace<'a> {
    /// The span sink.
    pub tracer: &'a mut Tracer,
    /// Calls `SelectionEngine::query` on the request text.
    pub prepare: &'a dyn Fn(&str),
    /// Reads the backend's result-cache counters.
    pub cache: &'a dyn Fn() -> CacheStats,
    /// Cache hits and misses caused by the served requests alone.
    pub hits: u64,
    /// See `hits`.
    pub misses: u64,
}

impl ReadTrace<'_> {
    /// Record the spans of one served request: `prepare` (timed here), then
    /// `serve` with its `serve.exec` child from `ServeStats::exec_time`.
    pub fn serve(&mut self, serving: &ServingEngine, request: ServeRequest, id: u64) -> Served {
        let text = request.text.clone();
        self.tracer.time("prepare", Some(id), || (self.prepare)(&text));
        let before = (self.cache)();
        let (served, start, end) = serve_one(serving, request);
        let after = (self.cache)();
        self.hits += after.hits - before.hits;
        self.misses += after.misses - before.misses;
        let parent = self.tracer.record("serve", start, end, None, Some(id));
        let stats = served.response.stats;
        let exec_start = start + stats.queue_wait;
        self.tracer.record(
            "serve.exec",
            exec_start,
            exec_start + stats.exec_time,
            Some(parent),
            Some(id),
        );
        served
    }
}

/// A one-client closed loop of `ops` requests: request `i + 1` is sent only
/// after request `i` has been answered. Returns the served requests and the
/// phase's wall time.
pub fn closed_loop(
    serving: &ServingEngine,
    mut request: impl FnMut(usize) -> ServeRequest,
    ops: usize,
    mut trace: Option<&mut ReadTrace<'_>>,
) -> (Vec<Served>, Duration) {
    let mut served = Vec::with_capacity(ops);
    let started = Instant::now();
    for i in 0..ops {
        let next = request(i);
        let one = match trace.as_deref_mut() {
            Some(trace) => trace.serve(serving, next, i as u64),
            None => serve_one(serving, next).0,
        };
        served.push(one);
    }
    (served, started.elapsed())
}

/// `clients` closed-loop clients sharing one request sequence of exactly
/// `ops` requests; returns the wall time. Used for the scaling diagnostic.
pub fn closed_loop_clients(
    serving: &ServingEngine,
    request: impl Fn(usize) -> ServeRequest + Sync,
    ops: usize,
    clients: usize,
) -> Duration {
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= ops {
                    break;
                }
                serve_one(serving, request(i));
            });
        }
    });
    started.elapsed()
}

/// Set-up cost of one engine: the build, then the first use of each
/// predicate the workload sends (which builds its lazy artifacts).
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    /// Engine construction.
    pub build: Duration,
    /// First touch of each predicate, in workload order.
    pub first_touch: Vec<(PredicateKind, Duration)>,
}

impl SetupTimes {
    /// Build plus every first touch.
    pub fn total(&self) -> Duration {
        self.build + self.first_touch.iter().map(|(_, d)| *d).sum::<Duration>()
    }

    /// Time the build with `build`, then each first touch with `touch`,
    /// recording `setup.build` / `setup.first_touch.<kind>` spans when
    /// traced.
    pub fn measure<E>(
        kinds: &[PredicateKind],
        build: impl FnOnce() -> E,
        mut touch: impl FnMut(&E, PredicateKind),
        mut tracer: Option<&mut Tracer>,
    ) -> (E, SetupTimes) {
        let start = Instant::now();
        let engine = build();
        let end = Instant::now();
        if let Some(t) = tracer.as_deref_mut() {
            t.record("setup.build", start, end, None, None);
        }
        let mut times = SetupTimes { build: end - start, first_touch: Vec::new() };
        for &kind in kinds {
            let start = Instant::now();
            touch(&engine, kind);
            let end = Instant::now();
            if let Some(t) = tracer.as_deref_mut() {
                t.record(format!("setup.first_touch.{}", kind_name(kind)), start, end, None, None);
            }
            times.first_touch.push((kind, end - start));
        }
        (engine, times)
    }
}

/// Build an engine `reps` times (dropping each before the next) and keep
/// the last one; returns it with the median set-up time in seconds.
pub fn repeated_setup<E>(reps: usize, mut setup: impl FnMut() -> (E, SetupTimes)) -> (E, f64) {
    let mut totals = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let (engine, times) = setup();
        totals.push(times.total().as_secs_f64());
        last = Some(engine);
    }
    (last.expect("at least one set-up"), stats::median(&totals))
}

/// Average precision of one top-k answer against the relevant tids.
pub fn average_precision(results: &[ScoredTid], relevant: &HashSet<u32>) -> f64 {
    let ranking: Vec<u32> = results.iter().map(|s| s.tid).collect();
    dasp_eval::metrics::average_precision(&ranking, relevant)
}

/// Running tally of the checked operations of a run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or failed their check.
    pub failed: u64,
    /// Whether a check outside any single operation failed.
    broken: bool,
    first_failures: Vec<String>,
}

impl Tally {
    /// Count one operation with its check outcome.
    pub fn count(&mut self, what: &str, check: Check) {
        self.attempted += 1;
        if check.is_err() {
            self.failed += 1;
        }
        self.note(what, check);
    }

    /// Record a check that is not one operation's (a checkpoint's view of
    /// the whole corpus): a failure makes the run incorrect.
    pub fn invariant(&mut self, what: &str, check: Check) {
        self.broken |= check.is_err();
        self.note(what, check);
    }

    fn note(&mut self, what: &str, check: Check) {
        if let Err(reason) = check {
            if self.first_failures.len() < 5 {
                self.first_failures.push(format!("{what}: {reason}"));
            }
        }
    }

    /// Share of attempted operations that succeeded.
    pub fn success_share(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }

    /// Move the counts into the outcome, with the first failures as notes.
    pub fn finish(self, outcome: &mut Outcome) {
        outcome.attempted = self.attempted;
        outcome.failed = self.failed;
        outcome.correct = self.failed == 0 && !self.broken && self.attempted > 0;
        for failure in self.first_failures {
            outcome.note(format!("FAILED {failure}"));
        }
    }
}

/// The request-stream and answer digests of a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Digests {
    /// Over every request (kind, text, mode) and write.
    pub requests: Digest,
    /// Over every answer (tids and score bits, or the error).
    pub answers: Digest,
}

impl Digests {
    /// Mix one served read in.
    pub fn read(&mut self, served: &Served) {
        self.requests.u64(served.request.kind.index() as u64);
        self.requests.str(&served.request.text);
        self.requests.str(&format!("{:?}", served.request.exec));
        match served.results() {
            Ok(rows) => {
                self.answers.u64(rows.len() as u64);
                for row in rows {
                    self.answers.u64(u64::from(row.tid));
                    self.answers.u64(row.score.to_bits());
                }
            }
            Err(e) => self.answers.str(&e.to_string()),
        }
    }

    /// The note line reporting both digests.
    pub fn note(&self) -> String {
        format!(
            "digest requests={:016x} answers={:016x}",
            self.requests.value(),
            self.answers.value()
        )
    }
}

/// `p50_ms` and `p99_ms` of the read latencies, and a note with the sample
/// count behind them.
pub fn latency_metrics(outcome: &mut Outcome, latencies: &[Duration]) {
    let ms: Vec<f64> = latencies.iter().map(|&d| stats::ms(d)).collect();
    if ms.is_empty() {
        return;
    }
    outcome.metric("p50_ms", stats::median(&ms), "ms");
    outcome.metric("p99_ms", stats::percentile(&ms, 0.99), "ms");
    outcome.note(format!(
        "samples latency={} beyond_p99={}",
        ms.len(),
        stats::beyond(ms.len(), 0.99)
    ));
}

/// The end-to-end metrics every workload reports.
pub struct EndToEnd {
    /// Median set-up time over the run's set-ups.
    pub setup_s: f64,
    /// Operations completed in the measured phase (reads and writes).
    pub ops: usize,
    /// The measured phase's wall time.
    pub wall: Duration,
    /// Outside wall time of each read.
    pub read_latencies: Vec<Duration>,
    /// Peak resident memory after the measured phase.
    pub rss_mb: f64,
    /// Mean average precision of the run's distinct requests.
    pub map: f64,
    /// Host CPU steal share over the measured phase.
    pub steal: Option<f64>,
}

impl EndToEnd {
    /// Append the end-to-end metrics (`success_share` comes from `tally`).
    pub fn report(&self, outcome: &mut Outcome, tally: &Tally) {
        outcome.metric("setup_s", self.setup_s, "s");
        outcome.metric("qps", self.ops as f64 / self.wall.as_secs_f64(), "1/s");
        latency_metrics(outcome, &self.read_latencies);
        outcome.metric("success_share", tally.success_share(), "share");
        outcome.metric("rss_mb", self.rss_mb, "MiB");
        outcome.metric("map", self.map, "score");
        if let Some(steal) = self.steal {
            outcome.note(format!("cpu_steal_share={steal:.4} over the measured phase"));
        }
    }
}

/// Per-layer metrics shared by the read paths of every workload, from the
/// traced phase's spans and responses and the `hit_probes` after it.
pub fn read_layer_metrics(
    outcome: &mut Outcome,
    tracer: &Tracer,
    served: &[Served],
    probes: &[Served],
    cache_counts: (u64, u64),
) {
    let serve_ids: Vec<usize> = tracer
        .spans()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "serve")
        .map(|(i, _)| i)
        .collect();
    let overhead: Vec<f64> = serve_ids.iter().map(|&id| stats::us(tracer.self_time(id))).collect();
    if !overhead.is_empty() {
        outcome.metric("serve.overhead_us", stats::median(&overhead), "us");
    }
    let waits: Vec<f64> = served.iter().map(|s| stats::us(s.response.stats.queue_wait)).collect();
    if !waits.is_empty() {
        outcome.metric("serve.queue_wait_us", stats::median(&waits), "us");
    }
    let (hits, misses) = cache_counts;
    if hits + misses > 0 {
        outcome.metric("cache.hit_share", hits as f64 / (hits + misses) as f64, "share");
    }
    let hit_us: Vec<f64> = served
        .iter()
        .chain(probes)
        .filter(|s| s.response.stats.cache_hit)
        .map(|s| stats::us(s.latency))
        .collect();
    if !hit_us.is_empty() {
        outcome.metric("cache.hit_us", stats::median(&hit_us), "us");
    }
    let prepare: Vec<f64> = tracer.durations("prepare").into_iter().map(stats::us).collect();
    if !prepare.is_empty() {
        outcome.metric("prepare.query_us", stats::median(&prepare), "us");
    }
    let routes: Vec<_> = served.iter().filter_map(|s| s.response.stats.route).collect();
    if !routes.is_empty() {
        let scans = routes.iter().filter(|r| r.chosen == dasp_core::RouteChoice::Scan).count();
        outcome.metric("route.scan_share", scans as f64 / routes.len() as f64, "share");
    }
    let exec: Vec<f64> = served
        .iter()
        .filter(|s| !s.response.stats.cache_hit)
        .map(|s| stats::ms(s.response.stats.exec_time))
        .collect();
    if !exec.is_empty() {
        outcome.metric("exec.p50_ms", stats::median(&exec), "ms");
        outcome.metric("exec.p99_ms", stats::percentile(&exec, 0.99), "ms");
    }
    for &kind in PredicateKind::all() {
        let exec: Vec<f64> = served
            .iter()
            .filter(|s| s.request.kind == kind && !s.response.stats.cache_hit)
            .map(|s| stats::ms(s.response.stats.exec_time))
            .collect();
        if !exec.is_empty() {
            outcome.metric(format!("exec.{}.p50_ms", kind_name(kind)), stats::median(&exec), "ms");
        }
    }
}

/// Per-layer set-up metrics of the traced set-up.
pub fn setup_layer_metrics(outcome: &mut Outcome, times: &SetupTimes) {
    outcome.metric("setup.build_s", times.build.as_secs_f64(), "s");
    let touched: Duration = times.first_touch.iter().map(|(_, d)| *d).sum();
    outcome.metric("setup.first_touch_ms", stats::ms(touched), "ms");
    for (kind, d) in &times.first_touch {
        outcome.metric(format!("setup.first_touch_ms.{}", kind_name(*kind)), stats::ms(*d), "ms");
    }
}

/// Work counters of replayed requests, summed per kind: candidates scored
/// and (for the bounded kinds) postings touched.
#[derive(Debug, Default)]
pub struct WorkCounts {
    per_kind: [(u64, u64); PredicateKind::COUNT],
    seen: [bool; PredicateKind::COUNT],
}

impl WorkCounts {
    /// Add one replay's report.
    pub fn add(&mut self, kind: PredicateKind, report: Option<dasp_core::BudgetReport>) {
        if let Some(r) = report {
            let slot = &mut self.per_kind[kind.index()];
            slot.0 += r.candidates_scored;
            slot.1 += r.postings_touched;
            self.seen[kind.index()] = true;
        }
    }

    /// Append `work.<kind>.candidates` and `work.<kind>.postings`.
    pub fn report(&self, outcome: &mut Outcome) {
        for &kind in PredicateKind::all() {
            if !self.seen[kind.index()] {
                continue;
            }
            let (candidates, postings) = self.per_kind[kind.index()];
            outcome.metric(
                format!("work.{}.candidates", kind_name(kind)),
                candidates as f64,
                "count",
            );
            if BOUNDED.contains(&kind) {
                outcome.metric(
                    format!("work.{}.postings", kind_name(kind)),
                    postings as f64,
                    "count",
                );
            }
        }
    }
}

/// Append `trace.overhead_share`: the traced phase's qps shortfall against
/// the untraced phase over the same operations.
pub fn tracing_overhead(outcome: &mut Outcome, untraced: Duration, traced: Duration) {
    outcome.metric(
        "trace.overhead_share",
        1.0 - untraced.as_secs_f64() / traced.as_secs_f64(),
        "share",
    );
}

/// Write the traced run's spans and note where they went.
pub fn write_spans(outcome: &mut Outcome, config: &Config, tracer: &Tracer) {
    let path = config.trace_path();
    match tracer.write_jsonl(&path) {
        Ok(()) => {
            outcome.note(format!("spans={} written to {}", tracer.spans().len(), path.display()))
        }
        Err(e) => {
            outcome.correct = false;
            outcome.note(format!("FAILED writing spans to {}: {e}", path.display()));
        }
    }
}

/// Record indices of `dataset` with pairwise distinct texts in a seeded
/// order, leaving out the text of record `touch` (the set-up's first-touch
/// query, which must not warm the cache for a request).
fn distinct_texts(dataset: &Dataset, seed: u64, stream: u64, touch: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..dataset.len()).collect();
    crate::rng::SplitMix64::new(seed, stream).shuffle(&mut order);
    let mut seen: HashSet<&str> = HashSet::new();
    seen.insert(&dataset.records[touch].text);
    order.retain(|&i| seen.insert(&dataset.records[i].text));
    order
}

/// `distinct_texts` cut into `strata` equal length strata (shortest first)
/// and dealt out in rounds: round `r` is `texts[r * strata..(r + 1) *
/// strata]`, one seeded text from each stratum in a seeded order. Text
/// length drives the cost of every predicate (correlation 0.85 with the
/// summed 13-predicate latency on DBLP-10k), so every prefix of whole rounds
/// has the same length profile whatever the seed, and a run's figures do
/// not depend on which texts its seed happened to draw.
pub fn stratified_texts(
    dataset: &Dataset,
    seed: u64,
    stream: u64,
    touch: usize,
    strata: usize,
) -> Vec<usize> {
    let key = |i: usize| (dataset.records[i].text.len(), i);
    let mut sorted = distinct_texts(dataset, seed, stream, touch);
    sorted.sort_by_key(|&i| key(i));
    let size = sorted.len() / strata;
    let mut cut: Vec<Vec<usize>> =
        sorted.chunks(size).take(strata).map(<[usize]>::to_vec).collect();
    for (j, stratum) in cut.iter_mut().enumerate() {
        crate::rng::SplitMix64::new(seed, stream * 1000 + j as u64).shuffle(stratum);
    }
    let mut order = crate::rng::SplitMix64::new(seed, stream * 1000 + 999);
    let mut texts = Vec::with_capacity(size * strata);
    for r in 0..size {
        let mut round: Vec<usize> = cut.iter().map(|stratum| stratum[r]).collect();
        order.shuffle(&mut round);
        texts.extend(round);
    }
    texts
}

/// Record indices by cluster id: the relevant set of a query drawn from a
/// record is its whole cluster.
pub fn cluster_members(dataset: &Dataset) -> HashMap<u32, Vec<u32>> {
    let mut members: HashMap<u32, Vec<u32>> = HashMap::new();
    for (idx, r) in dataset.records.iter().enumerate() {
        members.entry(r.cluster).or_default().push(idx as u32);
    }
    members
}

/// `map` over the distinct requests of a read-only run (the first answer
/// to each (kind, text), so a Zipf-hot text weighs no more than a cold
/// one), noting the run's request and answer digests.
pub fn read_summary(
    served: &[Served],
    relevant: impl Fn(usize) -> HashSet<u32>,
    outcome: &mut Outcome,
) -> f64 {
    let mut digests = Digests::default();
    let mut seen = HashSet::new();
    let mut aps = Vec::with_capacity(served.len());
    for (i, s) in served.iter().enumerate() {
        digests.read(s);
        if seen.insert((s.request.kind.index(), s.request.text.as_str())) {
            aps.push(s.results().map_or(0.0, |rows| average_precision(rows, &relevant(i))));
        }
    }
    outcome.note(digests.note());
    stats::mean(&aps)
}

/// Threads that run answer checks. Checks run outside the timed phase,
/// so they may use both cores of the reference host.
pub const CHECK_LANES: usize = 2;

/// Check every served request, each lane on its own thread with its own
/// state (reference caches), and count the outcomes in request order.
/// `lane_of` must send requests that share references to the same lane.
/// Each check becomes a `verify` span when traced.
pub fn verify_all<S>(
    served: &[Served],
    lane_of: impl Fn(&Served) -> usize + Sync,
    state: impl Fn() -> S + Sync,
    check: impl Fn(&mut S, &Served) -> Check + Sync,
    tally: &mut Tally,
    mut tracer: Option<&mut Tracer>,
) {
    let lanes: Vec<Vec<(usize, Check, Instant, Instant)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CHECK_LANES)
            .map(|lane| {
                let (lane_of, state, check) = (&lane_of, &state, &check);
                scope.spawn(move || {
                    let mut state = state();
                    let mut out = Vec::new();
                    for (i, s) in served.iter().enumerate() {
                        if lane_of(s) % CHECK_LANES == lane {
                            let start = Instant::now();
                            let outcome = check(&mut state, s);
                            out.push((i, outcome, start, Instant::now()));
                        }
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("answer checks do not panic")).collect()
    });
    let mut outcomes: Vec<_> = lanes.into_iter().flatten().collect();
    outcomes.sort_by_key(|o| o.0);
    for (i, check, start, end) in outcomes {
        if let Some(t) = tracer.as_deref_mut() {
            t.record("verify", start, end, None, Some(i as u64));
        }
        let s = &served[i];
        tally.count(
            &format!("request {i} {} {:?}", kind_name(s.request.kind), s.request.text),
            check,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_round_takes_one_text_per_length_stratum() {
        let dataset = dasp_datagen::presets::dblp_dataset(2_000);
        let texts = stratified_texts(&dataset, 9, 1, 0, 10);
        let key = |i: usize| (dataset.records[i].text.len(), i);
        let mut sorted = texts.clone();
        sorted.sort_by_key(|&i| key(i));
        let size = sorted.len() / 10;
        let stratum = |i: usize| sorted.binary_search_by_key(&key(i), |&j| key(j)).unwrap() / size;
        for round in texts.chunks(10) {
            let mut strata: Vec<usize> = round.iter().map(|&i| stratum(i)).collect();
            strata.sort_unstable();
            assert_eq!(strata, (0..10).collect::<Vec<_>>());
        }
        assert_ne!(texts, stratified_texts(&dataset, 10, 1, 0, 10));
    }
}
