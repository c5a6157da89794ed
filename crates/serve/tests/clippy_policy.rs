//! Canary for `crates/serve/clippy.toml`, as `tests/clippy_policy.rs`
//! is for the root file: an entry that is misspelt or deleted leaves
//! its `#[expect]` unfulfilled, which `-D warnings` denies.

#[test]
fn every_serve_clippy_toml_entry_fires() {
    #[expect(clippy::disallowed_types, reason = "canary")]
    let _: Option<std::collections::HashMap<u8, u8>> = None;
    #[expect(clippy::disallowed_types, reason = "canary")]
    let _: Option<std::collections::HashSet<u8>> = None;
    #[expect(clippy::disallowed_methods, reason = "canary")]
    std::thread::sleep(std::time::Duration::ZERO);
}
