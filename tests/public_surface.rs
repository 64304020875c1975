//! The public surface stays what the product calls.
//!
//! Every `pub fn` in a library crate under `crates/*/src` must be named
//! somewhere outside that crate's own sources: in another crate
//! (benches and binaries included), in `tests/`, `examples/`, `src/`, or
//! the standalone benchmark's `benchmark/src`. A function nothing
//! outside its crate names should be `pub(crate)` (or gone); the few
//! that stay public for another reason sit on [`KEEP`] with that reason.
//!
//! The scan matches names, not paths, so it is a floor: a name that
//! some other crate happens to use too counts as called. A `pub fn`
//! with a common name (`map`, `decode`) can therefore escape it while
//! nothing outside its crate calls it, so review such names by hand.
//! Each file is
//! read up to its first `#[cfg(test)]`, so unit-test helpers are not
//! surface. Binaries under `src/bin/` are separate targets and count as
//! callers of their crate's library. This file itself is skipped, since
//! [`KEEP`] names the kept functions. Nothing is built.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs;
use std::path::{Path, PathBuf};

/// Public functions no file outside their crate names, each with the
/// reason it stays public.
const KEEP: &[(&str, &str)] = &[
    (
        "heap_region",
        "sdam-mem's crate doc example wires a heap to a VMA with it",
    ),
    (
        "mmap_fixed",
        "sdam-mem's crate doc example maps a heap region with it",
    ),
    (
        "malloc_sensitive_in",
        "the paper's section 4 guard-chunk allocation, named in README and DESIGN section 6",
    ),
    (
        "bank_hashed_reference",
        "the oracle the bank-hash fold is proven against; oracles leave the libraries together, not one by one",
    ),
];

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = entries.map(|e| e.unwrap().path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every identifier-like word of `text`.
fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

/// The `pub fn` names of `text` before its first `#[cfg(test)]`.
fn pub_fns(text: &str) -> Vec<String> {
    let mut names = Vec::new();
    for line in text.lines() {
        let line = line.trim_start();
        if line.starts_with("#[cfg(test)]") {
            break;
        }
        let rest = line
            .strip_prefix("pub fn ")
            .or_else(|| line.strip_prefix("pub const fn "));
        if let Some(name) = rest.and_then(|r| words(r).next()) {
            names.push(name.to_string());
        }
    }
    names
}

#[test]
fn every_public_function_has_a_caller_outside_its_crate() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates", "tests", "examples", "src", "benchmark/src"] {
        rs_files(&root.join(dir), &mut files);
    }
    // This file names the kept functions; it calls none of them.
    files.retain(|f| !f.ends_with(file!()));
    // word -> files that contain it
    let mut index: HashMap<String, BTreeSet<usize>> = HashMap::new();
    let mut texts = Vec::new();
    for (i, f) in files.iter().enumerate() {
        let text = fs::read_to_string(f).unwrap();
        for w in words(&text) {
            index.entry(w.to_string()).or_default().insert(i);
        }
        texts.push(text);
    }

    // (crate library source dir, name) for every public function.
    let mut unreferenced: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut defined = 0;
    for (i, f) in files.iter().enumerate() {
        let rel = f.strip_prefix(root).unwrap();
        let parts: Vec<_> = rel.iter().map(|p| p.to_str().unwrap()).collect();
        if parts[0] != "crates" || parts[2] != "src" || parts[3] == "bin" {
            continue;
        }
        let own = root.join("crates").join(parts[1]).join("src");
        let bins = own.join("bin");
        for name in pub_fns(&texts[i]) {
            defined += 1;
            let called = index.get(&name).is_some_and(|users| {
                users
                    .iter()
                    .any(|&u| !files[u].starts_with(&own) || files[u].starts_with(&bins))
            });
            if !called {
                unreferenced
                    .entry(name)
                    .or_default()
                    .push(rel.display().to_string());
            }
        }
    }
    assert!(defined > 300, "scan found only {defined} definitions");

    let keep: BTreeMap<&str, &str> = KEEP.iter().copied().collect();
    for (name, reason) in KEEP {
        assert!(!reason.is_empty(), "`{name}` is kept without a reason");
    }
    let uncalled: Vec<String> = unreferenced
        .iter()
        .filter(|(name, _)| !keep.contains_key(name.as_str()))
        .map(|(name, at)| format!("{name} ({})", at.join(", ")))
        .collect();
    assert!(
        uncalled.is_empty(),
        "public functions nothing outside their crate calls; make them \
         pub(crate), delete them, or add them to KEEP with a reason:\n  {}",
        uncalled.join("\n  ")
    );
    let stale: Vec<&str> = keep
        .keys()
        .copied()
        .filter(|name| !unreferenced.contains_key(*name))
        .collect();
    assert!(
        stale.is_empty(),
        "KEEP entries that are now called outside their crate, or gone: {stale:?}"
    );
}
