//! Smoke-size runs of every workload: tiny corpora, short phases. They
//! exercise the closed loop, the answer checks and the traced run end to
//! end, and hold the metric names to `BENCHMARK.json`.

use e2ebench::report::Outcome;
use e2ebench::{refused_env_set, run, Config, Workload};
use std::collections::BTreeSet;

fn smoke(workload: Workload, trace: bool, seed: u64) -> Outcome {
    run(&Config { workload, seed, seconds: 0.2, trace, smoke: true })
}

/// The (name, unit) pairs of a run's result line.
fn names(outcome: &Outcome) -> BTreeSet<(String, String)> {
    outcome.metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect()
}

fn digest_note(outcome: &Outcome) -> String {
    outcome.notes.iter().find(|n| n.starts_with("digest")).expect("digest note").clone()
}

/// The (name, unit) pairs `BENCHMARK.json` lists in one section.
fn declared(section: &str) -> BTreeSet<(String, String)> {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = json.find(&format!("\"{section}\"")).expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    let field = |entry: &str, key: &str| {
        let value = &entry[entry.find(&format!("\"{key}\": \"")).expect(key) + key.len() + 5..];
        value[..value.find('"').expect(key)].to_string()
    };
    body.split('{').skip(1).map(|entry| (field(entry, "name"), field(entry, "unit"))).collect()
}

#[test]
fn untraced_runs_report_every_end_to_end_metric() {
    let expected = declared("end_to_end");
    for workload in Workload::ALL {
        let outcome = smoke(workload, false, 1);
        assert!(outcome.correct, "{}: {:?}", workload.name(), outcome.notes);
        assert!(outcome.attempted > 0);
        assert_eq!(outcome.failed, 0);
        assert_eq!(names(&outcome), expected, "{}", workload.name());
        assert_eq!(outcome.get("success_share"), Some(1.0));
        assert!(outcome.metrics.iter().all(|m| m.value > 0.0), "{:?}", outcome.metrics);
        assert!(outcome.to_json().starts_with("{\"correct\": true"));
    }
}

#[test]
fn traced_runs_report_every_per_layer_metric() {
    let expected = declared("per_layer");
    for workload in Workload::ALL {
        let outcome = smoke(workload, true, 2);
        assert!(outcome.correct, "{}: {:?}", workload.name(), outcome.notes);
        assert!(outcome.attempted > 0);
        assert_eq!(names(&outcome), expected, "{}", workload.name());
        assert!(outcome.metrics.iter().all(|m| m.value.is_finite()), "{:?}", outcome.metrics);
        assert!(outcome.notes.iter().any(|n| n.starts_with("layer ")), "{}", workload.name());
    }
    let lookup = smoke(Workload::Lookup13, true, 3);
    assert_eq!(lookup.get("cache.hit_share"), Some(0.0));
}

#[test]
fn one_seed_repeats_its_requests_answers_and_map() {
    for workload in [Workload::Lookup13, Workload::LiveIngest] {
        let (a, b) = (smoke(workload, false, 4), smoke(workload, false, 4));
        assert_eq!(digest_note(&a), digest_note(&b), "{}", workload.name());
        assert_eq!(a.get("map"), b.get("map"), "{}", workload.name());
        let other = smoke(workload, false, 5);
        assert_ne!(digest_note(&a), digest_note(&other), "{}", workload.name());
    }
}

#[test]
fn knobs_that_change_the_configuration_are_refused() {
    assert!(refused_env_set(|_| None).is_empty());
    let set = |name: &str| (name == "DASP_SHARDS" || name == "DASP_FAULT_SEED").then(String::new);
    assert_eq!(refused_env_set(set), vec!["DASP_SHARDS", "DASP_FAULT_SEED"]);
}
