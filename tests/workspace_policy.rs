//! Manifest policy the toolchain cannot express (DESIGN §13): a plain
//! line scan of the root package's and every `crates/*` and `vendor/*`
//! `Cargo.toml`.

/// The trimmed lines of `[header]`, up to the next table header.
fn table<'a>(manifest: &'a str, header: &str) -> Vec<&'a str> {
    let body = manifest.lines().map(str::trim).skip_while(|l| *l != header);
    body.skip(1).take_while(|l| !l.starts_with('[')).collect()
}

fn for_each_manifest(check: impl Fn(&std::path::Path, &str)) {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dirs = vec![root.to_path_buf()];
    for parent in ["crates", "vendor"] {
        let entries = std::fs::read_dir(root.join(parent)).unwrap();
        let packages = entries.map(|e| e.unwrap().path()).filter(|d| d.is_dir());
        dirs.extend(packages);
    }
    for dir in dirs {
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).unwrap();
        check(&dir, &manifest);
    }
}

/// `unsafe_code = "forbid"` reaches a package only through this table.
/// `vendor/sigshim` alone opts out: installing a signal handler is FFI.
#[test]
fn every_package_inherits_the_workspace_lints() {
    for_each_manifest(|dir, manifest| {
        if dir.ends_with("vendor/sigshim") {
            return;
        }
        let inherits = table(manifest, "[lints]").contains(&"workspace = true");
        assert!(inherits, "{} opts out of [workspace.lints]", dir.display());
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
        assert!(!named && !dotted, "{} depends on deep-serve", dir.display());
    });
}
