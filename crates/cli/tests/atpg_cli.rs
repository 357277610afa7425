//! `wbist atpg` reports its two layers: `--progress` lists a timing
//! line for sequence generation and one for compaction.

use std::process::Command;

#[test]
fn atpg_progress_lists_generation_and_compaction() {
    let dir = std::env::temp_dir().join(format!("wbist-atpg-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tempdir");
    let bench = dir.join("s27.bench");
    let wbist = env!("CARGO_BIN_EXE_wbist");
    let gen = Command::new(wbist)
        .args(["gen", "s27", "-o"])
        .arg(&bench)
        .status()
        .expect("run wbist gen");
    assert!(gen.success());
    let out = Command::new(wbist)
        .arg("atpg")
        .arg(&bench)
        .args(["--max-len", "32", "--progress"])
        .output()
        .expect("run wbist atpg");
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let timings = stderr
        .split("phase timings:\n")
        .nth(1)
        .expect("--progress prints the phase timings");
    let phases: Vec<&str> = timings
        .lines()
        .take_while(|l| l.starts_with("  "))
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(phases, ["atpg.generate", "atpg.compact"], "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
