//! The benchmark must time the build users run: its release profile
//! has to equal the repository's.

use std::path::Path;

/// The `[profile.release]` settings of a manifest, normalised and
/// sorted.
fn release_profile(manifest: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(manifest)
        .unwrap_or_else(|e| panic!("reading {}: {e}", manifest.display()));
    let mut settings: Vec<String> = text
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty())
        .map(|l| l.replace(' ', ""))
        .collect();
    settings.sort();
    settings
}

#[test]
fn release_profile_matches_the_repository() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let ours = release_profile(&here.join("Cargo.toml"));
    let root = release_profile(&here.join("../Cargo.toml"));
    assert!(
        !ours.is_empty(),
        "the benchmark manifest has no [profile.release]"
    );
    assert_eq!(
        ours, root,
        "perfbench/Cargo.toml [profile.release] differs from the root manifest's"
    );
}
