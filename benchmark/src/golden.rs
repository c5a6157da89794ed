//! `benchmark/golden.json`: the simulated results a simulator-only
//! change must leave bit-identical.

/// One entry: what is pinned for a simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct Golden {
    /// FNV summary digest (`0x…`), or `-` where the run has none.
    pub digest: String,
    pub messages: u64,
    pub kernel_events: u64,
    pub sim_iter_s: f64,
}

/// Key of a workload's entry in `golden.json`.
pub fn golden_key(workload: &str, smoke: bool) -> String {
    if smoke {
        format!("{workload}@smoke")
    } else {
        workload.to_string()
    }
}

/// Compare `measured` with the golden entry `key`; `Some(reason)` on a
/// mismatch or a missing entry, with the measured entry spelt out so a
/// deliberate model change can update the file.
pub fn check_golden(key: &str, measured: &Golden) -> Option<String> {
    let path = crate::repo_root().join("benchmark/golden.json");
    let entry = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))
        .and_then(|text| deep_json::from_str(&text).map_err(|e| format!("golden.json: {e}")))
        .and_then(|doc| {
            let e = doc.get(key).ok_or(format!("golden.json has no '{key}'"))?;
            Ok(Golden {
                digest: e["digest"].as_str().unwrap_or("").to_string(),
                messages: e["messages"].as_u64().unwrap_or(0),
                kernel_events: e["kernel_events"].as_u64().unwrap_or(0),
                sim_iter_s: e["sim_iter_s"].as_f64().unwrap_or(f64::NAN),
            })
        });
    let spelt = format!(
        "\"{key}\": {{\"digest\": \"{}\", \"messages\": {}, \"kernel_events\": {}, \"sim_iter_s\": {}}}",
        measured.digest, measured.messages, measured.kernel_events, measured.sim_iter_s
    );
    match entry {
        Ok(g) if g == *measured => None,
        Ok(g) => Some(format!("{key}: golden {g:?} but measured {spelt}")),
        Err(e) => Some(format!("{e}; measured {spelt}")),
    }
}
