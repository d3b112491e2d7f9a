//! Replay every repro trace under `dst/repros/`.
//!
//! Each file is a regression test: it must replay with no oracle
//! divergence, to the replay digest its `# digest 0x…` note line
//! records, and its parse must serialize back to the file byte for byte.
//! `experiments torture` writes a file there when a scenario diverges;
//! the corpus files pin the legacy serve path (see the README there).

use dynmds_dst::Repro;

/// The `digest 0x…` line of a repro's note, if it has one.
fn expected_digest(repro: &Repro) -> Option<u64> {
    let hex = repro.note.lines().find_map(|l| l.strip_prefix("digest 0x"))?;
    Some(u64::from_str_radix(hex, 16).expect("digest note is hex"))
}

#[test]
fn all_committed_repros_replay_clean() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/dst/repros");
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return, // directory absent: nothing to replay
    };
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "txt"))
        .collect();
    paths.sort();

    let mut failed = Vec::new();
    for path in &paths {
        let text = std::fs::read_to_string(path).expect("readable repro file");
        let repro = Repro::parse(&text)
            .unwrap_or_else(|e| panic!("{}: malformed repro: {e}", path.display()));
        assert_eq!(repro.to_text(), text, "{}: parse→to_text is not exact", path.display());
        let out = repro.replay();
        for d in &out.divergences {
            eprintln!("{}: diverges: {d}", path.display());
        }
        match expected_digest(&repro) {
            _ if !out.divergences.is_empty() => failed.push(path.display().to_string()),
            Some(want) if want == out.digest => {
                eprintln!("{}: replays clean ({} ops)", path.display(), repro.trace.records.len())
            }
            want => {
                eprintln!("{}: replay digest {:#018x}, note {want:x?}", path.display(), out.digest);
                failed.push(path.display().to_string());
            }
        }
    }
    assert!(failed.is_empty(), "repros diverging, or without or off their digest: {failed:?}");
}
