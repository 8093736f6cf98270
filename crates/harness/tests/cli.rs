//! `repro` as a pipeline stage: a reader that stops early is not an error.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// Spawns `repro args` and closes its stdout after reading `lines` lines,
/// as `repro … | head -1` does: whatever it prints next meets a closed pipe.
#[test]
fn a_closed_stdout_ends_repro_quietly() {
    for args in [&["list"][..], &["--scale", "bench", "table1"]] {
        for lines in [1, 0] {
            let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
                .args(args)
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("repro spawns");
            let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
            for _ in 0..lines {
                let mut line = String::new();
                assert!(stdout.read_line(&mut line).expect("a line") > 0, "{args:?}");
            }
            drop(stdout);
            let output = child.wait_with_output().expect("repro exits");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(output.status.success(), "{args:?}: {:?}\n{stderr}", output.status);
            assert!(!stderr.contains("panicked"), "{args:?}:\n{stderr}");
        }
    }
}
