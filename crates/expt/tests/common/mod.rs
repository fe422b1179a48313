//! The one compare-or-update step of every golden-file test target.

/// Compare `got` with the fixture at `path`, relative to this crate's
/// `tests/` directory. With `UPDATE_GOLDEN` set, write `got` there
/// instead. A mismatch fails naming the fixture and its first
/// differing line, clipped to the neighbourhood of the first differing
/// character (some fixtures hold one JSON document per line).
pub fn check_golden(path: &str, got: &str) {
    let path = format!("{}/tests/{path}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, got).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e}; run with UPDATE_GOLDEN=1"));
    if got == want {
        return;
    }
    let first = got
        .split('\n')
        .zip(want.split('\n'))
        .enumerate()
        .find(|(_, (g, w))| g != w)
        .map(|(i, (g, w))| {
            let col = g.chars().zip(w.chars()).take_while(|(a, b)| a == b).count();
            let clip = |s: &str| {
                s.chars()
                    .skip(col.saturating_sub(40))
                    .take(120)
                    .collect::<String>()
            };
            format!(
                "line {}, column {}: got `{}`, want `{}`",
                i + 1,
                col + 1,
                clip(g),
                clip(w)
            )
        })
        .unwrap_or_else(|| format!("got {} bytes, want {}", got.len(), want.len()));
    panic!("{path} drifted ({first}); rerun with UPDATE_GOLDEN=1 if intentional");
}
