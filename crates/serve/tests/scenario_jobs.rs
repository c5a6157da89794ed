//! Scenario jobs through the daemon scheduler: validation at the
//! trust boundary, byte-identity with the library/`run_scenario`
//! path, and digest-keyed cache hits on resubmission (including
//! reformatted copies of the same document).

use deep_json::{object, Value};
use deep_serve::protocol::JobRequest;
use deep_serve::scheduler::{Scheduler, SchedulerConfig};

const SCENARIO_TOML: &str = "\
[scenario]
name = \"serve-roundtrip\"
seed = 7
replicas = 4

[machine]
preset = \"small\"

[app]
skeleton = \"resilience\"
work_s = 20000.0
mtbf_node_s = 250000.0
checkpoint_s = 120.0
restart_s = 300.0
intervals = [\"daly\"]

[[sweep.axes]]
param = \"n_nodes\"
values = [64, 256]
";

fn scenario_request(client: &str, toml: &str) -> JobRequest {
    let doc = deep_scenario::parse_toml(toml).unwrap();
    let body = object([("client", client.into()), ("scenario", doc)]);
    JobRequest::from_json(&body).unwrap()
}

/// The job document as a client parses it.
fn job(s: &Scheduler, id: u64) -> Value {
    deep_json::from_str(&s.job_json(id).unwrap().to_string()).unwrap()
}

fn wait_terminal(s: &Scheduler, id: u64) -> Value {
    let mut seen = 0;
    loop {
        let (fresh, terminal) = s.events_after(id, seen).unwrap();
        seen += fresh.len();
        if terminal {
            return job(s, id);
        }
    }
}

#[test]
fn scenario_job_matches_library_execution_and_caches() {
    let s = Scheduler::new(SchedulerConfig {
        workers: 1,
        ..SchedulerConfig::default()
    })
    .unwrap();
    let a = s.submit(scenario_request("ci", SCENARIO_TOML)).unwrap();
    assert!(!a.cached);
    let done = wait_terminal(&s, a.job_id);
    assert_eq!(done["state"], "done");

    // Byte-identity with the library path (which run_scenario shares).
    let sc = deep_scenario::Scenario::from_toml_str(SCENARIO_TOML).unwrap();
    let expect = deep_scenario::execute(&sc);
    assert_eq!(
        done["result"].to_json(),
        expect.to_json(),
        "daemon result must be byte-identical to the library path"
    );

    // A reformatted copy of the document (extra comments/whitespace,
    // reordered keys within tables) digests identically → cache hit.
    let reformatted = "\
# same scenario, shuffled and commented
[scenario]
seed = 7          # moved up
name = \"serve-roundtrip\"
replicas = 4

[machine]
preset = \"small\"

[app]
intervals = [\"daly\"]
restart_s = 300.0
checkpoint_s = 120.0
mtbf_node_s = 250000.0
work_s = 20000.0
skeleton = \"resilience\"

[[sweep.axes]]
values = [64, 256]
param = \"n_nodes\"
";
    let b = s.submit(scenario_request("other", reformatted)).unwrap();
    assert!(b.cached, "reordered document must hit the same cache entry");
    let hit = job(&s, b.job_id);
    assert_eq!(hit["cache_hit"].as_bool(), Some(true));
    assert_eq!(hit["result"].to_json(), done["result"].to_json());
    s.shutdown();
}

#[test]
fn invalid_scenario_rejected_at_admission() {
    let doc = deep_scenario::parse_toml(
        "[scenario]\nname = \"bad\"\nseed = 1\n\n[machine]\npreset = \"warehouse\"\n",
    )
    .unwrap();
    let body = object([("scenario", doc)]);
    let err = JobRequest::from_json(&body).unwrap_err();
    assert_eq!(
        err,
        "scenario: machine: unknown preset 'warehouse' (use 'small', 'medium', 'prototype')"
    );
}
