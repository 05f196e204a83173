//! The CLI at budgets where `e^ε` overflows `f64`: every framework must
//! exit 0 and write finite estimates, as at ordinary budgets. The CLI runs
//! as a real subprocess so the exit code is observed as a user sees it.

use std::process::Command;

fn mcim(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_mcim"))
        .args(args)
        .output()
        .expect("running the mcim binary")
}

#[test]
fn freq_at_eps_1500_exits_zero_with_finite_estimates() {
    let dir = std::env::temp_dir().join("mcim-huge-budget-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let pairs = dir.join("pairs.csv").to_string_lossy().into_owned();
    let gen = mcim(&[
        "gen",
        "--dataset",
        "syn3",
        "--users",
        "2000",
        "--output",
        &pairs,
    ]);
    assert!(
        gen.status.success(),
        "{}",
        String::from_utf8_lossy(&gen.stderr)
    );
    for framework in ["pts-cp", "pts", "ptj", "hec"] {
        let out = dir.join(format!("{framework}.csv"));
        let out = out.to_string_lossy();
        let run = mcim(&[
            "freq",
            "--input",
            &pairs,
            "--eps",
            "1500",
            "--threads",
            "1",
            "--framework",
            framework,
            "--output",
            &out,
        ]);
        assert_eq!(
            run.status.code(),
            Some(0),
            "{framework}: {}",
            String::from_utf8_lossy(&run.stderr)
        );
        let csv = std::fs::read_to_string(&*out).unwrap();
        let estimates: Vec<f64> = csv
            .lines()
            .skip(1)
            .map(|line| line.rsplit(',').next().unwrap().parse().unwrap())
            .collect();
        assert!(!estimates.is_empty(), "{framework}: no rows");
        assert!(
            estimates.iter().all(|v| v.is_finite()),
            "{framework}: non-finite estimate"
        );
    }
}
