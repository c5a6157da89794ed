//! Manifest policy the toolchain cannot express (DESIGN §13): a plain
//! line scan of the root package's and every `crates/*` `Cargo.toml`.

/// The trimmed lines of `[header]`, up to the next table header.
fn table<'a>(manifest: &'a str, header: &str) -> Vec<&'a str> {
    let body = manifest.lines().map(str::trim).skip_while(|l| *l != header);
    body.skip(1).take_while(|l| !l.starts_with('[')).collect()
}

fn for_each_manifest(check: impl Fn(&str, &str)) {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates = std::fs::read_dir(root.join("crates")).unwrap();
    let mut dirs: Vec<_> = crates.map(|e| e.unwrap().path()).collect();
    dirs.push(root.to_path_buf());
    for dir in dirs {
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).unwrap();
        check(&dir.display().to_string(), &manifest);
    }
}

/// `unsafe_code = "forbid"` reaches a package only through this table.
#[test]
fn every_package_inherits_the_workspace_lints() {
    for_each_manifest(|dir, manifest| {
        let inherits = table(manifest, "[lints]").contains(&"workspace = true");
        assert!(inherits, "{dir} opts out of [workspace.lints]");
    });
}

/// The daemon may read the clock (`crates/serve/clippy.toml`); simulation
/// code could reach that only by importing it. `[dev-dependencies]` are free.
#[test]
fn no_package_depends_on_deep_serve() {
    for_each_manifest(|dir, manifest| {
        let deps = table(manifest, "[dependencies]");
        let named = deps.iter().any(|l| l.starts_with("deep-serve"));
        let dotted = manifest.contains("[dependencies.deep-serve]");
        assert!(!named && !dotted, "{dir} depends on deep-serve");
    });
}
