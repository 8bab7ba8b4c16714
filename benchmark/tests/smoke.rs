//! `cargo test` for this package: every workload at ≤ 1 s scale,
//! untraced and traced, plus the result and `BENCHMARK.json` schema
//! checks (`benchmark smoke`).

use std::process::Command;

#[test]
fn smoke_suite_passes() {
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .arg("smoke")
        .output()
        .expect("run the benchmark binary");
    assert!(
        output.status.success(),
        "benchmark smoke failed:\n{}\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
}
