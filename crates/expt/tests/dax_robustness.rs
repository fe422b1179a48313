//! Malformed workflow files return an error, never a panic.
//!
//! `wfdag::from_json` is fed every char-boundary prefix of the tiny
//! Montage workflow's JSON, then a bounded, deterministic set of
//! single-byte substitutions of it. Each call must return `Err` or a
//! workflow; each workflow that loads must run on NFS with 2 workers to
//! `Ok` or `Err(RunError)` without panicking.

use rayon::prelude::*;
use wfengine::{run_workflow, RunConfig};
use wfgen::App;
use wfstorage::StorageKind;

fn json() -> String {
    wfdag::to_json(&App::Montage.tiny_workflow())
}

/// Load `doc` and, if it loads, run it; a panic anywhere fails the test
/// with the offending edit named.
fn load_and_run(doc: &str, what: &str) -> bool {
    let run = std::panic::catch_unwind(|| match wfdag::from_json(doc) {
        Ok(wf) => {
            let _ = run_workflow(wf, RunConfig::cell(StorageKind::Nfs, 2));
            true
        }
        Err(_) => false,
    });
    run.unwrap_or_else(|_| panic!("{what} panicked"))
}

#[test]
fn every_prefix_is_an_error() {
    let doc = json();
    let ends: Vec<usize> = doc.char_indices().map(|(end, _)| end).collect();
    // Parsing every prefix is quadratic in the document's length, so the
    // prefixes are one parallel job list.
    let loads: Vec<bool> = ends
        .par_iter()
        .map(|&end| load_and_run(&doc[..end], &format!("prefix of {end} bytes")))
        .collect();
    let loaded: Vec<usize> = ends
        .iter()
        .zip(&loads)
        .filter(|p| *p.1)
        .map(|p| *p.0)
        .collect();
    assert!(loaded.is_empty(), "truncated documents loaded: {loaded:?}");
    assert!(load_and_run(&doc, "the whole document"));
}

#[test]
fn single_byte_substitutions_never_panic() {
    let doc = json();
    // Bytes that change a document's structure (brackets, quotes,
    // separators), its numbers (digits, sign, exponent) or neither.
    const SUBSTITUTES: &[u8] = b"{}[]\",:0-9e. x";
    const STRIDE: usize = 97;
    let (mut tried, mut loaded) = (0, 0);
    for pos in (0..doc.len()).step_by(STRIDE) {
        if !doc.is_char_boundary(pos) || !doc.is_char_boundary(pos + 1) {
            continue;
        }
        let sub = SUBSTITUTES[(pos / STRIDE) % SUBSTITUTES.len()];
        if doc.as_bytes()[pos] == sub {
            continue;
        }
        let mut edited = doc.clone();
        edited.replace_range(pos..pos + 1, &char::from(sub).to_string());
        tried += 1;
        if load_and_run(&edited, &format!("byte {pos} -> {:?}", char::from(sub))) {
            loaded += 1;
        }
    }
    assert!(tried > 100, "only {tried} substitutions tried");
    assert!(
        loaded < tried,
        "every substitution loaded: none was malformed"
    );
}
