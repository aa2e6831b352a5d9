//! The clock-site ratchet. Every place the transport reads the clock, sleeps
//! or waits on a timeout is counted, per source file of `mkse-net` and
//! `mkse-protocol`, and held to the ceiling below. A timed decision belongs
//! in a pure function that takes `now` (`Batcher::decide`,
//! `RetryPolicy::next`, the coordinator's `expired`), so a new site is a
//! decision leaking back into a thread shell. A change may lower a ceiling —
//! and must, once it removes a site — while raising one must be named in the
//! change that does it.
//!
//! A site is one occurrence of a pattern below outside comment lines, in the
//! part of the file before its `#[cfg(test)]` module.

use std::fs;
use std::path::Path;

const PATTERNS: [&str; 5] = [
    "Instant::now()",
    "thread::sleep",
    "recv_timeout",
    "wait_timeout",
    ".elapsed()",
];

/// Sites per file; a file not listed has none.
const CEILINGS: [(&str, usize); 6] = [
    // The shells around the hub's core: the reader's read per `recv` return
    // and its poll tick; the dispatcher's read per turn and its bounded
    // wait. The core itself reads no clock.
    ("net/src/hub.rs", 4),
    // The deadline's start in `submit`, the reads before each reply wait and
    // after each failed attempt, the backoff sleep, the bounded dial wait.
    ("net/src/resilient.rs", 5),
    // One read per `Service` entry (`call`, `call_query_group`).
    ("net/src/coordinator.rs", 2),
    // The injected delay; the faulty reader passing its poll tick on.
    ("net/src/fault.rs", 3),
    // `wait_take`'s deadline, remaining wait and blocked-time measurement.
    ("protocol/src/client.rs", 4),
    // The poll tick of each link and the memory pipe's timed wait.
    ("protocol/src/link.rs", 4),
];

fn sites(source: &str) -> usize {
    source
        .lines()
        .take_while(|line| !line.starts_with("#[cfg(test)]"))
        .filter(|line| !line.trim_start().starts_with("//"))
        .map(|line| {
            PATTERNS
                .iter()
                .map(|p| line.matches(p).count())
                .sum::<usize>()
        })
        .sum()
}

#[test]
fn the_site_count_skips_comments_and_tests() {
    let source = "let t = Instant::now();\n\
                  // thread::sleep(t.elapsed());\n\
                  rx.recv_timeout(t.elapsed())\n\
                  #[cfg(test)]\n\
                  std::thread::sleep(WAIT);\n";
    assert_eq!(sites(source), 3);
}

#[test]
fn clock_sites_stay_at_their_ceilings() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("crates/ holds this crate");
    let mut counted = Vec::new();
    for krate in ["net", "protocol"] {
        let mut files: Vec<_> = fs::read_dir(crates.join(krate).join("src"))
            .expect("source directory")
            .map(|entry| entry.expect("directory entry").path())
            .collect();
        files.sort();
        for path in files {
            let name = format!(
                "{krate}/src/{}",
                path.file_name().expect("a file").to_string_lossy()
            );
            let source = fs::read_to_string(&path).expect("readable source");
            counted.push((name, sites(&source)));
        }
    }
    for (file, _) in CEILINGS {
        assert!(
            counted.iter().any(|(name, _)| name == file),
            "{file} has a ceiling but no longer exists"
        );
    }
    let off: Vec<String> = counted
        .iter()
        .filter_map(|(name, n)| {
            let ceiling = CEILINGS
                .iter()
                .find(|(file, _)| file == name)
                .map_or(0, |&(_, c)| c);
            (*n != ceiling).then(|| format!("{name}: {n} clock sites, ceiling {ceiling}"))
        })
        .collect();
    assert!(
        off.is_empty(),
        "clock sites moved (lower a ceiling a change removed sites under; \
         move a new timed decision into a pure function instead of raising one):\n{}",
        off.join("\n")
    );
}
