//! Observability end to end: run a pipeline with the `mcim_obs` registry
//! recording, print the `--verbose`-style summary table, export the
//! Prometheus text exposition, and validate it with the same golden
//! parser CI uses on `--metrics-out` files.
//!
//! Collection is off by default and never changes estimates — the run
//! below is bit-identical with `set_enabled(true)` removed (the
//! recording column of `tests/obs_equivalence.rs` pins exactly that).
//!
//! Run: `cargo run --release --example observability`
//! (writes `target/observability.prom`; CI runs this as its exposition
//! validation step.)

use multiclass_ldp::obs;
use multiclass_ldp::prelude::*;

fn main() -> Result<()> {
    let domains = Domains::new(4, 256)?;
    let data: Vec<LabelItem> = (0..200_000)
        .map(|u| LabelItem::new((u % 4) as u32, ((u * 7919) % 256) as u32))
        .collect();

    // Everything between enable and snapshot is recorded: pipeline and
    // stage spans, fold/chunk/report counters.
    obs::reset();
    obs::set_enabled(true);
    let plan = Exec::seeded(7).threads(4);
    let result = Framework::PtsCp { label_frac: 0.5 }.execute(
        Eps::new(2.0)?,
        domains,
        &plan,
        SliceSource::new(&data),
    )?;
    obs::set_enabled(false);
    let snap = obs::snapshot();
    obs::reset();

    println!(
        "PTS-CP over {} users (c = {}, d = {}): {:.1} report bits/user\n",
        data.len(),
        domains.classes(),
        domains.items(),
        result.comm.bits_per_user()
    );
    print!("{}", snap.render_table());

    // Export the exposition and validate it with the golden parser — the
    // exact check CI applies to `mcim … --metrics-out` output.
    let text = snap.to_prometheus();
    let path = std::path::Path::new("target").join("observability.prom");
    std::fs::create_dir_all("target").expect("creating target/");
    std::fs::write(&path, &text).expect("writing exposition");
    let samples = obs::parse_prometheus(&text).expect("exposition must satisfy the golden parser");
    assert!(
        samples.iter().any(|s| s.name == "mcim_folds_total"),
        "fold counters missing from the exposition"
    );
    println!(
        "\nwrote {} ({} samples, golden parser: ok)",
        path.display(),
        samples.len()
    );
    Ok(())
}
