//! Canary for the root `clippy.toml` (DESIGN §13). clippy reports an
//! entry whose path does not resolve as a plain warning, which
//! `-D warnings` does not deny — so every entry proves itself here
//! instead: each statement below is banned, and its `#[expect]` goes
//! unfulfilled (a gate failure under `cargo clippy --all-targets --
//! -D warnings`) the day the entry is misspelt or deleted.

#[test]
fn every_root_clippy_toml_entry_fires() {
    #[expect(clippy::disallowed_types, reason = "canary")]
    let _: Option<std::collections::HashMap<u8, u8>> = None;
    #[expect(clippy::disallowed_types, reason = "canary")]
    let _: Option<std::collections::HashSet<u8>> = None;
    #[expect(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        reason = "canary"
    )]
    let _ = std::time::Instant::now();
    #[expect(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        reason = "canary"
    )]
    let _ = std::time::SystemTime::now();
    #[expect(clippy::disallowed_methods, reason = "canary")]
    let _ = std::env::var("DEEP_CANARY");
    #[expect(clippy::disallowed_methods, reason = "canary")]
    let _ = std::env::var_os("DEEP_CANARY");
    #[expect(clippy::disallowed_methods, reason = "canary")]
    let _ = std::env::vars();
    #[expect(clippy::disallowed_methods, reason = "canary")]
    let _ = std::env::args();
    #[expect(clippy::disallowed_methods, reason = "canary")]
    let _ = std::env::args_os();
}
