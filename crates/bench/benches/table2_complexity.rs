//! **Table II** — measured communication, time and space of the top-k
//! mining methods, next to the paper's asymptotic expressions.
//!
//! We report per-user uplink bits, per-user downlink (broadcast) bits,
//! end-to-end wall-clock time, and the candidate-state space, for the
//! baseline frameworks (PEM-based) and the optimized (†) methods.
//!
//! Run: `cargo bench -p mcim-bench --bench table2_complexity`

// Timing tool: measuring wall-clock time is this target's whole job
// (mcim-lint classifies benches as Tool; clippy needs the explicit allow).
#![allow(clippy::disallowed_methods)]

use std::time::Instant;

use mcim_bench::workloads::jd;
use mcim_bench::{fmt, BenchEnv, Table};
use mcim_oracles::exec::Exec;
use mcim_oracles::stream::SliceSource;
use mcim_oracles::Eps;
use mcim_topk::{execute, TopKConfig, TopKMethod};

fn main() {
    let env = BenchEnv::from_env(1);
    env.announce("Table II: complexity of top-k methods (JD-like, eps = 4, k = 20)");
    let ds = jd(env.scale);
    let k = 20;
    let config = TopKConfig::new(k, Eps::new(4.0).unwrap());
    println!(
        "workload: N = {}, c = {}, d = {}\n",
        ds.len(),
        ds.domains.classes(),
        ds.domains.items()
    );

    let mut table = Table::new(
        "table2_complexity",
        &[
            "method",
            "uplink bits/user",
            "downlink bits/user",
            "wall-clock s",
            "paper comm (user)",
        ],
    );
    let rows: [(TopKMethod, &str); 5] = [
        (TopKMethod::Hec, "O(2^m k log d)"),
        (
            TopKMethod::PtsPem {
                validity: false,
                global: false,
            },
            "O(2^m k log d)",
        ),
        (TopKMethod::PtjPem { validity: false }, "O(2^m c k log cd)"),
        (TopKMethod::PtjShuffled { validity: true }, "O(ck) (PTJ†)"),
        (
            TopKMethod::PtsShuffled {
                validity: true,
                global: true,
                correlated: true,
            },
            "O(ck) (PTS†)",
        ),
    ];
    for (method, asymptotic) in rows {
        let plan = Exec::seeded(0x7AB2).threads(1);
        let start = Instant::now();
        let result = execute(
            method,
            config,
            ds.domains,
            &plan,
            SliceSource::new(&ds.pairs),
        )
        .expect("mine");
        let elapsed = start.elapsed().as_secs_f64();
        table.push(vec![
            method.name(),
            fmt(result.comm.bits_per_user()),
            fmt(result.broadcast_bits_per_user),
            fmt(elapsed),
            asymptotic.to_string(),
        ]);
    }
    table.print_and_save().expect("write results");

    println!("Frequency-estimation frameworks (per-user report size):\n");
    let mut freq_table = Table::new(
        "table2_frequency_comm",
        &["framework", "bits/user", "paper comm"],
    );
    let eps = Eps::new(1.0).unwrap();
    let sample: Vec<mcim_core::LabelItem> = ds.pairs.iter().take(2_000).copied().collect();
    for fw in mcim_core::Framework::fig6_set() {
        let plan = Exec::seeded(1).threads(1);
        let result = fw
            .execute(eps, ds.domains, &plan, SliceSource::new(&sample))
            .expect("run");
        let asymptotic = match fw.name() {
            "PTJ" => "O(cd)",
            _ => "O(d)",
        };
        freq_table.push(vec![
            fw.name().to_string(),
            fmt(result.comm.bits_per_user()),
            asymptotic.to_string(),
        ]);
    }
    freq_table.print_and_save().expect("write results");
    println!(
        "Expected shape (paper Table II + §V-C): PTJ pays ~c× the per-user\n\
         uplink of PTS/HEC; the optimized (†) methods replace candidate\n\
         broadcasts with O(seeds + bucket states) downlink."
    );
}
