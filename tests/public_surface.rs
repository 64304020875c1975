//! The public surface stays what the product calls.
//!
//! Every `pub fn` in a library crate under `crates/*/src` must be named
//! somewhere outside that crate's own sources: in another crate
//! (benches and binaries included), in `tests/`, `examples/`, `src/`, or
//! the standalone benchmark's `benchmark/src`. A function nothing
//! outside its crate names should be `pub(crate)` (or gone); the few
//! that stay public for another reason sit on [`KEEP`] with that reason.
//!
//! A `pub fn` without a receiver inside an inherent `impl Type` block
//! is held to more: a file outside the crate must name it by path, as
//! `Type::name`, since a bare word like `new` says nothing about which
//! type's constructor is called. The few kept anyway sit on
//! [`KEEP_ASSOCIATED`] with their reason.
//!
//! The same holds for the `pub` fields of every `pub struct *Config`: a
//! knob nothing outside its crate sets or reads is an option with one
//! value in use, so it should be a private constant. The few fields
//! kept anyway sit on [`KEEP_FIELDS`] with their reason.
//!
//! Every `pub struct`, `enum`, `trait`, `type` and `mod` must be named
//! outside its crate as well. A type that nothing outside names may
//! still have to stay public: a public signature or re-export exposes
//! it (rustc's `private_interfaces` lint), or another crate reaches it
//! through type inference, as a caller reads a field of a returned
//! value. Such types sit on [`KEEP_TYPES`], each reason naming the
//! exposing item and its caller outside the crate. An exposing item
//! that has no such caller is narrowed instead, and the type with it.
//!
//! The scan matches names, not paths, so it is a floor: a name that
//! some other crate happens to use too counts as called. A `pub fn`
//! (or field) with a common name (`map`, `decode`) can therefore escape
//! it while nothing outside its crate calls it, so review such names by
//! hand (the `Type::name` rule closes that gap for associated
//! functions, not for methods). A type escapes it the same way when
//! another package defines a type of the same name, or names it only in
//! a comment. Each file is read up to its first `#[cfg(test)]`, so unit-test helpers are not
//! surface. Binaries under `src/bin/` are separate targets and count as
//! callers of their crate's library. This file itself is skipped, since
//! [`KEEP`], [`KEEP_ASSOCIATED`], [`KEEP_TYPES`] and [`KEEP_FIELDS`]
//! name the kept items. Nothing is built.

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

/// Associated functions without a receiver that no file outside their
/// crate names as `Type::name`, each with the reason it stays public.
const KEEP_ASSOCIATED: &[(&str, &str)] = &[];

/// Public types and modules no file outside their crate names, each
/// with the public signature, re-export or cross-crate use that keeps
/// it public.
const KEEP_TYPES: &[(&str, &str)] = &[
    (
        "AdaptReport",
        "the `ExecutionReport::adapt` field, which tests/determinism.rs and tests/obs_invariants.rs read",
    ),
    (
        "AllocatorReport",
        "returned by `ChunkAllocator::report`, which tests/prop_alloc.rs compares against its model",
    ),
    (
        "AreaReport",
        "returned by `area::area_report`, which the table3_area binary prints",
    ),
    (
        "BenchmarkSpec",
        "returned by `suites::table1` and taken by `Surrogate::new`, which the table1_variable_stats binary calls",
    ),
    (
        "CoreStats",
        "the element of the `ExecutionReport::per_core` field, which the benchmark's `wl/mod.rs` and sdam-sys's props test read",
    ),
    (
        "DescriptorError",
        "returned by `MappingDescriptor::compile_windowed`, which `sdam::probing` and the adapt bench call",
    ),
    (
        "DlClustering",
        "returned by `dlkmeans::cluster_variables_dl`, whose `assignments` `sdam::profiling` reads",
    ),
    (
        "Event",
        "yielded by `EventRing::iter`, whose `kind` tests/obs_invariants.rs reads; re-exported from `sdam_obs`",
    ),
    (
        "FoldRecovery",
        "returned by `Agent::recover_bank_fold`, which `sdam::probing` and tests/probe_suite.rs call; re-exported from `sdam_probe`",
    ),
    (
        "GeometryError",
        "returned by `Geometry::new`, which tests/error_paths.rs and the extension_future_clp binary call",
    ),
    (
        "HashRecovery",
        "returned by `Agent::recover_channel_hash`, which `sdam::probing` calls; re-exported from `sdam_probe`",
    ),
    (
        "PageAlloc",
        "returned by `ChunkAllocator::alloc_page` and `alloc_block`, which tests/prop_alloc.rs and the churn bench call",
    ),
    (
        "PermError",
        "returned by `BitPermutation::new`, which sdam-sys, sdam-probe, `sdam`, the benchmark and the tests call; re-exported from `sdam_mapping`",
    ),
    (
        "PermRecovery",
        "returned by `Agent::recover_permutation`, which `sdam::probing` and tests/probe_suite.rs call; re-exported from `sdam_probe`",
    ),
    (
        "ProbingError",
        "returned by `probing::seeded_suite`, `run_seeded_suite` and `sdam_probe_region`, which tests/probe_suite.rs calls",
    ),
    (
        "SdamProbeRegion",
        "returned by `probing::sdam_probe_region`, which tests/probe_suite.rs calls",
    ),
    (
        "StepLoss",
        "returned by `LstmAutoencoder::train_minibatch`, which tests/prop_ml.rs and the clustering bench call",
    ),
    (
        "SuiteEntry",
        "returned by `probing::seeded_suite`, which tests/probe_suite.rs and examples/reverse_engineer.rs call",
    ),
    (
        "TimingClasses",
        "returned by `sdam_mapping::timing_classes`, which sdam-probe's agent calls; re-exported from `sdam_mapping`",
    ),
    (
        "WorkloadVariableSummary",
        "returned by `profile::summarize`, which the table1_variable_stats binary calls",
    ),
];

/// `Config` struct fields no file outside their crate names, as
/// `Struct::field`, each with the reason it stays a field.
const KEEP_FIELDS: &[(&str, &str)] = &[
    (
        "MachineConfig::mlp_window",
        "the CPU and accelerator presets set it to 16 and 64; the depth of the miss window is the paper's reason accelerators gain more (section 7.4)",
    ),
    (
        "KMeansConfig::max_iters",
        "the k-means iteration cap; its unit tests sweep it to check that the loss never grows",
    ),
    (
        "ChurnConfig::max_alloc_pages",
        "the churn generator's allocation-size ceiling; `ChurnScript::config` reports it with the other generating parameters",
    ),
    (
        "ChurnConfig::sensitive_pct",
        "the churn generator's share of guard-isolated allocations; `ChurnScript::config` reports it with the other generating parameters",
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

/// Every `A::B` path pair of `text`: two identifiers joined by `::`.
fn path_pairs(text: &str) -> impl Iterator<Item = String> + '_ {
    let bytes = text.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut pairs = Vec::new();
    let mut i = 0;
    while let Some(at) = text[i..].find("::").map(|k| k + i) {
        let start = (0..at).rev().take_while(|&k| is_ident(bytes[k])).last();
        let end = (at + 2..bytes.len())
            .take_while(|&k| is_ident(bytes[k]))
            .last();
        if let (Some(start), Some(end)) = (start, end) {
            pairs.push(text[start..=end].to_string());
        }
        i = at + 2;
    }
    pairs.into_iter()
}

/// A `pub fn` of a library file.
struct PubFn {
    name: String,
    /// The type of the inherent `impl` block, for a function without a
    /// receiver defined inside one.
    owner: Option<String>,
}

/// `text` past a leading generic parameter list `<...>`, if any (an
/// `->` inside it, as in `F: Fn() -> u8`, closes nothing).
fn after_generics(text: &str) -> &str {
    if !text.starts_with('<') {
        return text;
    }
    let mut depth = 0;
    let mut prev = ' ';
    for (k, c) in text.char_indices() {
        match c {
            '<' => depth += 1,
            '>' if prev != '-' => depth -= 1,
            _ => {}
        }
        if depth == 0 {
            return &text[k + 1..];
        }
        prev = c;
    }
    ""
}

/// The type an `impl` header line implements for, or `None` for a
/// trait impl (which declares no `pub fn`).
fn impl_type(header: &str) -> Option<String> {
    let rest = header.strip_prefix("impl")?;
    if !rest.starts_with(['<', ' ']) {
        return None;
    }
    let rest = after_generics(rest);
    if rest.contains(" for ") {
        return None;
    }
    let path = rest.trim_start().split(['<', ' ', '{']).next()?;
    path.rsplit("::").next().map(str::to_string)
}

/// Whether a signature, from just past `pub fn name`, opens its
/// parameter list with a `self` receiver.
fn has_receiver(sig: &str) -> bool {
    let Some(mut p) = after_generics(sig).trim_start().strip_prefix('(') else {
        return false;
    };
    p = p.trim_start();
    if let Some(r) = p.strip_prefix('&') {
        p = r.trim_start();
        if p.starts_with('\'') {
            p = p.split_once(' ').map_or("", |(_, r)| r).trim_start();
        }
    }
    if let Some(r) = p.strip_prefix("mut ") {
        p = r.trim_start();
    }
    words(p).next() == Some("self")
}

/// The `pub fn`s of `text` before its first `#[cfg(test)]`. A receiver
/// may sit on a later line of the signature, so each signature is read
/// up to its parameter list.
fn pub_fns(text: &str) -> Vec<PubFn> {
    let lines: Vec<&str> = text.lines().collect();
    let mut fns = Vec::new();
    // The type and the indentation of the enclosing inherent `impl`.
    let mut within: Option<(String, usize)> = None;
    for (i, raw) in lines.iter().enumerate() {
        let line = raw.trim_start();
        let indent = raw.len() - line.len();
        if line.starts_with("#[cfg(test)]") {
            break;
        }
        match &within {
            Some((_, at)) if indent == *at && line.starts_with('}') => within = None,
            // A one-line `impl T {}` opens no block.
            None if !line.ends_with("{}") => within = impl_type(line).map(|ty| (ty, indent)),
            _ => {}
        }
        let rest = line
            .strip_prefix("pub fn ")
            .or_else(|| line.strip_prefix("pub const fn "));
        let Some(name) = rest.and_then(|r| words(r).next()) else {
            continue;
        };
        let mut sig = rest.unwrap_or_default()[name.len()..].to_string();
        for next in lines.iter().skip(i + 1).take(16) {
            if sig.contains('(') && sig.contains(')') {
                break;
            }
            sig.push(' ');
            sig.push_str(next.trim());
        }
        let owner = match &within {
            Some((ty, _)) if !has_receiver(&sig) => Some(ty.clone()),
            _ => None,
        };
        fns.push(PubFn {
            name: name.to_string(),
            owner,
        });
    }
    fns
}

/// The names of the `pub struct/enum/trait/type/mod` items of `text`
/// before its first `#[cfg(test)]`.
fn pub_types(text: &str) -> Vec<String> {
    let mut names = Vec::new();
    for line in text.lines() {
        let line = line.trim_start();
        if line.starts_with("#[cfg(test)]") {
            break;
        }
        let rest = [
            "pub struct ",
            "pub enum ",
            "pub trait ",
            "pub type ",
            "pub mod ",
        ]
        .iter()
        .find_map(|item| line.strip_prefix(item));
        if let Some(name) = rest.and_then(|r| words(r).next()) {
            names.push(name.to_string());
        }
    }
    names
}

/// The `pub` fields of every `pub struct *Config` in `text` before its
/// first `#[cfg(test)]`, as `Struct::field`.
fn pub_config_fields(text: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut within: Option<String> = None;
    for line in text.lines() {
        let line = line.trim_start();
        if line.starts_with("#[cfg(test)]") {
            break;
        }
        match &within {
            None => {
                let name = line
                    .strip_prefix("pub struct ")
                    .and_then(|r| words(r).next());
                if let Some(name) = name.filter(|n| n.ends_with("Config") && line.ends_with('{')) {
                    within = Some(name.to_string());
                }
            }
            Some(_) if line.starts_with('}') => within = None,
            Some(name) => {
                if let Some((field, _)) = line.strip_prefix("pub ").and_then(|r| r.split_once(':'))
                {
                    fields.push(format!("{name}::{}", field.trim()));
                }
            }
        }
    }
    fields
}

/// Every `.rs` file the scan reads, with a word → files index.
struct Corpus {
    root: PathBuf,
    files: Vec<PathBuf>,
    texts: Vec<String>,
    /// Word and `A::B` path → the files naming it.
    index: HashMap<String, BTreeSet<usize>>,
}

impl Corpus {
    fn load() -> Corpus {
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let mut files = Vec::new();
        for dir in ["crates", "tests", "examples", "src", "benchmark/src"] {
            rs_files(&root.join(dir), &mut files);
        }
        // This file names the kept items; it uses none of them.
        files.retain(|f| !f.ends_with(file!()));
        let mut index: HashMap<String, BTreeSet<usize>> = HashMap::new();
        let mut texts = Vec::new();
        for (i, f) in files.iter().enumerate() {
            let text = fs::read_to_string(f).unwrap();
            for w in words(&text) {
                index.entry(w.to_string()).or_default().insert(i);
            }
            for path in path_pairs(&text) {
                index.entry(path).or_default().insert(i);
            }
            texts.push(text);
        }
        Corpus {
            root,
            files,
            texts,
            index,
        }
    }

    /// For each library source file (under `crates/*/src`, `bin/`
    /// excepted): its path relative to the root, its text, and its
    /// crate's source directory.
    fn library_files(&self) -> impl Iterator<Item = (String, &str, PathBuf)> + '_ {
        self.files.iter().zip(&self.texts).filter_map(|(f, text)| {
            let rel = f.strip_prefix(&self.root).unwrap();
            let parts: Vec<_> = rel.iter().map(|p| p.to_str().unwrap()).collect();
            if parts[0] != "crates" || parts[2] != "src" || parts[3] == "bin" {
                return None;
            }
            let own = self.root.join("crates").join(parts[1]).join("src");
            Some((rel.display().to_string(), text.as_str(), own))
        })
    }

    /// Whether a file outside the crate whose sources are `own` names
    /// `word` (an identifier or an `A::B` path); the crate's own
    /// binaries count as outside.
    fn named_outside(&self, word: &str, own: &Path) -> bool {
        let bins = own.join("bin");
        self.index.get(word).is_some_and(|users| {
            users
                .iter()
                .any(|&u| !self.files[u].starts_with(own) || self.files[u].starts_with(&bins))
        })
    }
}

/// Fails on every item of `unreferenced` (name → defining files) that
/// `keep` does not list, and on every `keep` entry that is no longer
/// unreferenced.
fn check_against_keep(
    what: &str,
    unreferenced: &BTreeMap<String, Vec<String>>,
    keep: &[(&str, &str)],
) {
    let keep: BTreeMap<&str, &str> = keep.iter().copied().collect();
    for (name, reason) in &keep {
        assert!(!reason.is_empty(), "`{name}` is kept without a reason");
    }
    let uncalled: Vec<String> = unreferenced
        .iter()
        .filter(|(name, _)| !keep.contains_key(name.as_str()))
        .map(|(name, at)| format!("{name} ({})", at.join(", ")))
        .collect();
    assert!(
        uncalled.is_empty(),
        "{what} nothing outside their crate names; make them private, \
         delete them, or keep them with a reason:\n  {}",
        uncalled.join("\n  ")
    );
    let stale: Vec<&str> = keep
        .keys()
        .copied()
        .filter(|name| !unreferenced.contains_key(*name))
        .collect();
    assert!(
        stale.is_empty(),
        "kept {what} that are now named outside their crate, or gone: {stale:?}"
    );
}

#[test]
fn every_public_function_has_a_caller_outside_its_crate() {
    let corpus = Corpus::load();
    let mut unreferenced: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut defined = 0;
    for (rel, text, own) in corpus.library_files() {
        for f in pub_fns(text) {
            defined += 1;
            if !corpus.named_outside(&f.name, &own) {
                unreferenced.entry(f.name).or_default().push(rel.clone());
            }
        }
    }
    assert!(defined > 300, "scan found only {defined} definitions");
    check_against_keep("public functions", &unreferenced, KEEP);
}

#[test]
fn every_associated_function_is_named_by_path_outside_its_crate() {
    let corpus = Corpus::load();
    let mut unreferenced: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut defined = 0;
    for (rel, text, own) in corpus.library_files() {
        for f in pub_fns(text) {
            let Some(owner) = f.owner else { continue };
            defined += 1;
            let path = format!("{owner}::{}", f.name);
            if !corpus.named_outside(&path, &own) {
                unreferenced.entry(path).or_default().push(rel.clone());
            }
        }
    }
    assert!(
        defined > 60,
        "scan found only {defined} associated functions"
    );
    check_against_keep("associated functions", &unreferenced, KEEP_ASSOCIATED);
}

#[test]
fn the_scan_reads_receivers_and_impl_types() {
    assert_eq!(impl_type("impl Cmt {").as_deref(), Some("Cmt"));
    assert_eq!(
        impl_type("impl<T: Fn() -> u8> Ring<T> {").as_deref(),
        Some("Ring")
    );
    assert_eq!(impl_type("impl Default for Ring {"), None);
    assert_eq!(impl_type("impl_trait!(x);"), None);
    assert!(has_receiver("(&self) -> u64 {"));
    assert!(has_receiver("<'a>( &'a mut self, id: u8,"));
    assert!(has_receiver("(mut self, x: u8)"));
    assert!(!has_receiver("<F: Fn(&self_like) -> u8>(f: F)"));
    assert!(!has_receiver("(selfish: u8)"));
    let fns = pub_fns("impl Cmt {\n    pub fn new() -> Self {\n    }\n    pub fn get(\n        &self,\n    ) {}\n}\npub fn free() {}\n");
    let owners: Vec<(&str, Option<&str>)> = fns
        .iter()
        .map(|f| (f.name.as_str(), f.owner.as_deref()))
        .collect();
    assert_eq!(
        owners,
        [("new", Some("Cmt")), ("get", None), ("free", None)]
    );
    let pairs: Vec<String> = path_pairs("Cmt::new(a::b::C) :: x").collect();
    assert_eq!(pairs, ["Cmt::new", "a::b", "b::C"]);
}

#[test]
fn the_scan_reads_type_items() {
    let text = "pub struct Foo<'a, T> {\n    x: &'a T,\n}\npub(crate) struct Hidden;\npub(super) enum Up {}\npub enum Kind {\n    A,\n}\npub trait Walk {}\npub type Id = u8;\npub mod bitset;\nmod inner {\n    pub struct Nested(u8);\n}\n#[cfg(test)]\nmod tests {\n    pub struct Helper;\n}\npub struct Late;\n";
    assert_eq!(
        pub_types(text),
        ["Foo", "Kind", "Walk", "Id", "bitset", "Nested"]
    );
}

#[test]
fn every_public_type_and_module_is_named_outside_its_crate() {
    let corpus = Corpus::load();
    let mut unreferenced: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut defined = 0;
    for (rel, text, own) in corpus.library_files() {
        for name in pub_types(text) {
            defined += 1;
            if !corpus.named_outside(&name, &own) {
                unreferenced.entry(name).or_default().push(rel.clone());
            }
        }
    }
    assert!(defined > 150, "scan found only {defined} types and modules");
    check_against_keep("public types and modules", &unreferenced, KEEP_TYPES);
}

#[test]
fn every_config_field_is_named_outside_its_crate() {
    let corpus = Corpus::load();
    let mut unreferenced: BTreeMap<String, Vec<String>> = BTreeMap::new();
    let mut defined = 0;
    for (rel, text, own) in corpus.library_files() {
        for path in pub_config_fields(text) {
            defined += 1;
            let field = path.rsplit("::").next().unwrap();
            if !corpus.named_outside(field, &own) {
                unreferenced.entry(path).or_default().push(rel.clone());
            }
        }
    }
    assert!(defined > 20, "scan found only {defined} config fields");
    check_against_keep("config fields", &unreferenced, KEEP_FIELDS);
}
