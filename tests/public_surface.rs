//! The public surface stays what the product calls.
//!
//! Every `pub fn` in a library crate under `crates/*/src` must be
//! called somewhere outside that crate's own sources: in another crate
//! (benches and binaries included), in `tests/`, `examples/`, `src/`, or
//! the standalone benchmark's `benchmark/src`. A free function counts
//! as called when such a file names it. A method (a `pub fn` with a
//! `self` receiver) counts only in call position, as `.name(` or as
//! `Type::name` for its own type, since a bare word like `map` is as
//! likely a local variable or another type's field. A function nothing
//! outside its crate calls should be `pub(crate)` (or gone); the few
//! that stay public for another reason sit on [`KEEP`] with that reason.
//!
//! A `pub fn` without a receiver inside an inherent `impl Type` block
//! is held to more: a file outside the crate must name it by path, as
//! `Type::name`, since a bare word like `new` says nothing about which
//! type's constructor is called. The few kept anyway sit on
//! [`KEEP_ASSOCIATED`] with their reason.
//!
//! Every `pub const` and `pub static` must be named outside its crate
//! too, or sit on [`KEEP_CONSTS`]. So must the named `pub` fields of
//! every `pub struct`: a field nothing outside its crate sets or reads
//! is either an option with one value in use, which should be a private
//! constant, or a result nobody looks at. The few fields kept anyway
//! sit on [`KEEP_FIELDS`] with their reason.
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
//! Only code is read: comments (doc comments and their examples
//! included), string, byte-string and char literals are blanked before
//! any file is indexed or parsed. Each library file is read up to its
//! first `#[cfg(test)]`, so unit-test helpers are not surface. Binaries
//! under `src/bin/` are separate targets and count as callers of their
//! crate's library. This file itself is skipped, since its `KEEP` lists
//! name the kept items. Nothing is built.
//!
//! The scan matches names, not resolved paths, so it is a floor. A name
//! counts as used wherever it appears in code: a free function, type,
//! constant or field passes when another crate uses the same word for
//! anything (a local variable, a method, an item of its own), and a
//! method passes when any type's method of that name is called
//! (`.len(`, `.map(`), so review such names by hand. A doc example is
//! a caller rustc compiles but the scan blanks, so an item only a doc
//! example uses is kept with that reason. Items a macro generates or
//! only a glob import reaches are not seen; trait methods are not
//! scanned (their visibility is the trait's), nor are the fields of
//! tuple structs and enum variants, nor a struct whose header does not
//! end its line with `{`. A `pub` item inside a private module is
//! scanned like any other, although rustc already keeps it inside its
//! crate.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fs;
use std::path::{Path, PathBuf};

/// Public functions no file outside their crate calls (methods as
/// `Type::name`), each with the reason it stays public.
const KEEP: &[(&str, &str)] = &[
    (
        "MultiHeapMalloc::heap_region",
        "sdam-mem's crate doc example wires a heap to a VMA with it",
    ),
    (
        "AddressSpace::mmap_fixed",
        "sdam-mem's crate doc example maps a heap region with it",
    ),
    (
        "SdamSystem::malloc_sensitive_in",
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
        "ChannelStats",
        "the element of the `SimStats::per_channel` field, which tests/prop_hbm.rs reads",
    ),
    (
        "CoreStats",
        "the element of the `ExecutionReport::per_core` field, which the benchmark's `wl/mod.rs` and sdam-sys's props test read",
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

/// Public constants and statics no file outside their crate names,
/// each with the reason it stays public.
const KEEP_CONSTS: &[(&str, &str)] = &[];

/// Public struct fields no file outside their crate names, as
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

/// `text` with every comment, string literal and char literal blanked
/// to spaces, line breaks kept, so that only code is left to read.
fn strip_code(text: &str) -> String {
    let cs: Vec<char> = text.chars().collect();
    let mut out = String::with_capacity(text.len());
    let mut i = 0;
    while i < cs.len() {
        match literal_end(&cs, i) {
            Some(end) => {
                out.extend(cs[i..end].iter().map(|&c| if c == '\n' { c } else { ' ' }));
                i = end;
            }
            None => {
                out.push(cs[i]);
                i += 1;
            }
        }
    }
    out
}

/// The end of the comment or literal that opens at `cs[i]`, if one
/// does. Block comments nest. A quote opens a char literal only when an
/// escape follows it or it closes two characters on (`'"'`), so
/// lifetimes and labels (`'a`, `'static`) stay code.
fn literal_end(cs: &[char], i: usize) -> Option<usize> {
    let at = |k: usize| cs.get(k).copied().unwrap_or('\0');
    match (at(i), at(i + 1)) {
        ('/', '/') => return Some((i..cs.len()).find(|&k| cs[k] == '\n').unwrap_or(cs.len())),
        ('/', '*') => {
            let (mut k, mut depth) = (i, 0);
            while k < cs.len() {
                match (at(k), at(k + 1)) {
                    ('/', '*') => (k, depth) = (k + 2, depth + 1),
                    ('*', '/') if depth == 1 => return Some(k + 2),
                    ('*', '/') => (k, depth) = (k + 2, depth - 1),
                    _ => k += 1,
                }
            }
            return Some(cs.len());
        }
        _ => {}
    }
    // A literal's prefix (`b`, `c`, `r`, `br`, `cr`) starts a token.
    if i > 0 && (cs[i - 1].is_alphanumeric() || cs[i - 1] == '_') {
        return None;
    }
    let mut k = i + usize::from(matches!(at(i), 'b' | 'c'));
    if at(k) == 'r' {
        let hashes = (k + 1..cs.len()).take_while(|&h| cs[h] == '#').count();
        k += 1 + hashes;
        if at(k) != '"' {
            return None;
        }
        let closes = |e: usize| at(e) == '"' && (1..=hashes).all(|h| at(e + h) == '#');
        let end = (k + 1..cs.len()).find(|&e| closes(e));
        return Some(end.map_or(cs.len(), |e| e + 1 + hashes));
    }
    let close = match (at(k), at(k + 1), at(k + 2)) {
        ('"', ..) => '"',
        ('\'', '\\', _) | ('\'', _, '\'') => '\'',
        _ => return None,
    };
    k += 1;
    while k < cs.len() && cs[k] != close {
        k += if cs[k] == '\\' { 2 } else { 1 };
    }
    Some((k + 1).min(cs.len()))
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

/// Every method call of `text`, `.name(` or `.name::<`, as `.name`.
fn calls(text: &str) -> impl Iterator<Item = String> + '_ {
    text.match_indices('.').filter_map(|(at, _)| {
        // The second dot of a range `a..b` calls nothing.
        if text[..at].ends_with('.') {
            return None;
        }
        let rest = text[at + 1..].trim_start();
        let name = words(rest).next().filter(|w| rest.starts_with(w))?;
        let after = rest[name.len()..].trim_start();
        (after.starts_with('(') || after.starts_with("::")).then(|| format!(".{name}"))
    })
}

/// A `pub fn` of a library file.
struct PubFn {
    name: String,
    /// The type of the enclosing inherent `impl` block, if any.
    owner: Option<String>,
    receiver: bool,
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

/// The trimmed lines of `text` before its first `#[cfg(test)]`, with
/// the indentation of each.
fn surface_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .map(|raw| (raw.len() - raw.trim_start().len(), raw.trim()))
        .take_while(|(_, line)| !line.starts_with("#[cfg(test)]"))
}

/// The `pub fn`s of `text` before its first `#[cfg(test)]`. A receiver
/// may sit on a later line of the signature, so each signature is read
/// up to its parameter list.
fn pub_fns(text: &str) -> Vec<PubFn> {
    let lines: Vec<(usize, &str)> = surface_lines(text).collect();
    let mut fns = Vec::new();
    // The type and the indentation of the enclosing inherent `impl`.
    let mut within: Option<(String, usize)> = None;
    for (i, &(indent, line)) in lines.iter().enumerate() {
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
        for (_, next) in lines.iter().skip(i + 1).take(16) {
            if sig.contains('(') && sig.contains(')') {
                break;
            }
            sig.push(' ');
            sig.push_str(next);
        }
        fns.push(PubFn {
            name: name.to_string(),
            owner: within.as_ref().map(|(ty, _)| ty.clone()),
            receiver: has_receiver(&sig),
        });
    }
    fns
}

/// The names of the items of `text` before its first `#[cfg(test)]`
/// that open with one of `heads` (`"pub struct "`, ...).
fn pub_items(text: &str, heads: &[&str]) -> Vec<String> {
    surface_lines(text)
        .filter_map(|(_, line)| heads.iter().find_map(|head| line.strip_prefix(head)))
        .filter_map(|rest| words(rest.strip_prefix("mut ").unwrap_or(rest)).next())
        .filter(|name| *name != "fn")
        .map(str::to_string)
        .collect()
}

/// The `pub` named fields of every `pub struct` in `text` before its
/// first `#[cfg(test)]`, as `Struct::field`.
fn pub_fields(text: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut within: Option<&str> = None;
    for (_, line) in surface_lines(text) {
        match within {
            None => {
                within = line
                    .strip_prefix("pub struct ")
                    .filter(|_| line.ends_with('{'))
                    .and_then(|r| words(r).next());
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

/// Every `.rs` file the scan reads, stripped to code, with an index
/// from each name to the files naming it.
struct Corpus {
    root: PathBuf,
    files: Vec<PathBuf>,
    texts: Vec<String>,
    /// Word, `A::B` path and `.method` call → the files naming it.
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
            let text = strip_code(&fs::read_to_string(f).unwrap());
            let names = words(&text)
                .map(str::to_string)
                .chain(path_pairs(&text))
                .chain(calls(&text));
            for name in names {
                index.entry(name).or_default().insert(i);
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
    /// excepted): its path relative to the root, its code, and its
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
    /// `word` (an identifier, an `A::B` path or a `.method` call); the
    /// crate's own binaries count as outside.
    fn named_outside(&self, word: &str, own: &Path) -> bool {
        let bins = own.join("bin");
        self.index.get(word).is_some_and(|users| {
            users
                .iter()
                .any(|&u| !self.files[u].starts_with(own) || self.files[u].starts_with(&bins))
        })
    }

    /// The items `items` lists for each library file, by display name
    /// and the names that count as a use, that no file outside their
    /// crate names: display name → defining files. Also the count of
    /// items listed.
    fn unreferenced(
        &self,
        items: impl Fn(&str) -> Vec<(String, Vec<String>)>,
    ) -> (BTreeMap<String, Vec<String>>, usize) {
        let mut unreferenced: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut defined = 0;
        for (rel, text, own) in self.library_files() {
            for (shown, uses) in items(text) {
                defined += 1;
                if !uses.iter().any(|u| self.named_outside(u, &own)) {
                    unreferenced.entry(shown).or_default().push(rel.clone());
                }
            }
        }
        (unreferenced, defined)
    }
}

/// Items that count as used where their own name appears.
fn by_name(names: Vec<String>) -> Vec<(String, Vec<String>)> {
    names.into_iter().map(|n| (n.clone(), vec![n])).collect()
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
    let (unreferenced, defined) = Corpus::load().unreferenced(|text| {
        pub_fns(text)
            .into_iter()
            .filter_map(|f| match (f.owner, f.receiver) {
                (None, _) => Some((f.name.clone(), vec![f.name])),
                (Some(owner), true) => {
                    let path = format!("{owner}::{}", f.name);
                    Some((path.clone(), vec![format!(".{}", f.name), path]))
                }
                // Left to the associated-function rule.
                (Some(_), false) => None,
            })
            .collect()
    });
    assert!(
        defined > 300,
        "scan found only {defined} functions and methods"
    );
    check_against_keep("public functions", &unreferenced, KEEP);
}

#[test]
fn every_associated_function_is_named_by_path_outside_its_crate() {
    let (unreferenced, defined) = Corpus::load().unreferenced(|text| {
        pub_fns(text)
            .into_iter()
            .filter(|f| !f.receiver)
            .filter_map(|f| {
                let path = format!("{}::{}", f.owner?, f.name);
                Some((path.clone(), vec![path]))
            })
            .collect()
    });
    assert!(
        defined > 60,
        "scan found only {defined} associated functions"
    );
    check_against_keep("associated functions", &unreferenced, KEEP_ASSOCIATED);
}

#[test]
fn every_public_type_and_module_is_named_outside_its_crate() {
    let heads = [
        "pub struct ",
        "pub enum ",
        "pub trait ",
        "pub type ",
        "pub mod ",
    ];
    let (unreferenced, defined) =
        Corpus::load().unreferenced(|text| by_name(pub_items(text, &heads)));
    assert!(defined > 150, "scan found only {defined} types and modules");
    check_against_keep("public types and modules", &unreferenced, KEEP_TYPES);
}

#[test]
fn every_public_constant_is_named_outside_its_crate() {
    let heads = ["pub const ", "pub static "];
    let (unreferenced, defined) =
        Corpus::load().unreferenced(|text| by_name(pub_items(text, &heads)));
    assert!(defined > 2, "scan found only {defined} constants");
    check_against_keep("public constants", &unreferenced, KEEP_CONSTS);
}

#[test]
fn every_public_field_is_named_outside_its_crate() {
    let (unreferenced, defined) = Corpus::load().unreferenced(|text| {
        pub_fields(text)
            .into_iter()
            .map(|path| {
                let field = path.rsplit("::").next().unwrap().to_string();
                (path, vec![field])
            })
            .collect()
    });
    assert!(defined > 150, "scan found only {defined} fields");
    check_against_keep("public fields", &unreferenced, KEEP_FIELDS);
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
    let owners: Vec<(&str, Option<&str>, bool)> = fns
        .iter()
        .map(|f| (f.name.as_str(), f.owner.as_deref(), f.receiver))
        .collect();
    assert_eq!(
        owners,
        [
            ("new", Some("Cmt"), false),
            ("get", Some("Cmt"), true),
            ("free", None, false)
        ]
    );
    let pairs: Vec<String> = path_pairs("Cmt::new(a::b::C) :: x").collect();
    assert_eq!(pairs, ["Cmt::new", "a::b", "b::C"]);
}

#[test]
fn the_scan_reads_type_items() {
    let text = "pub struct Foo<'a, T> {\n    x: &'a T,\n}\npub(crate) struct Hidden;\npub(super) enum Up {}\npub enum Kind {\n    A,\n}\npub trait Walk {}\npub type Id = u8;\npub mod bitset;\nmod inner {\n    pub struct Nested(u8);\n}\n#[cfg(test)]\nmod tests {\n    pub struct Helper;\n}\npub struct Late;\n";
    assert_eq!(
        pub_items(
            text,
            &[
                "pub struct ",
                "pub enum ",
                "pub trait ",
                "pub type ",
                "pub mod "
            ]
        ),
        ["Foo", "Kind", "Walk", "Id", "bitset", "Nested"]
    );
}

#[test]
fn the_scan_reads_constants_and_fields() {
    let text = "pub const A: u8 = 1;\npub(crate) const B: u8 = 2;\npub const fn c() {}\npub static D: u8 = 3;\npub static mut E: u8 = 4;\nimpl X {\n    pub const F: u8 = 5;\n}\npub struct S<'a> {\n    pub x: &'a u8,\n    y: u8,\n    pub(crate) z: u8,\n    pub w: [u8; 2], // pub v: u8\n}\npub struct T(pub u8, pub u8);\npub(crate) struct U {\n    pub u: u8,\n}\n#[cfg(test)]\npub const G: u8 = 6;\npub struct V {\n    pub v: u8,\n}\n";
    let code = strip_code(text);
    assert_eq!(
        pub_items(&code, &["pub const ", "pub static "]),
        ["A", "D", "E", "F"]
    );
    assert_eq!(pub_fields(&code), ["S::x", "S::w"]);
}

#[test]
fn the_scan_ignores_comments_and_strings() {
    let text = r###"//! hid1
/// hid2
// hid3
/* a /* hid4 */ hid5 */
let s = "a \" hid6";
let r = r#"hid7 " "#;
let b = b"hid8";
let q = '"'; seen1(q);
let e = '\''; seen2(e);
fn f<'a>(x: &'a str) -> &'static str { seen3(x) }
let c = 'x'; 'outer: loop { seen4(c) }
"###;
    let code = strip_code(text);
    assert_eq!(code.lines().count(), text.lines().count());
    let found: BTreeSet<&str> = words(&code).collect();
    for hidden in [
        "hid1", "hid2", "hid3", "hid4", "hid5", "hid6", "hid7", "hid8",
    ] {
        assert!(
            !found.contains(hidden),
            "`{hidden}` read as code in:\n{code}"
        );
    }
    for seen in ["seen1", "seen2", "seen3", "seen4", "a", "static", "outer"] {
        assert!(found.contains(seen), "`{seen}` blanked in:\n{code}");
    }
}

#[test]
fn the_scan_finds_methods_by_call() {
    let code = "let vpn = 1;\nx.mean(); y\n    .distinct::<u8>(); z.field;\nfor i in 0..len {}\nlet f = Foo::strides;\n";
    let found: Vec<String> = calls(code).collect();
    assert_eq!(found, [".mean", ".distinct"]);
    assert!(path_pairs(code).any(|p| p == "Foo::strides"));
}
