//! Skin-lesion triage across clinics — the HAM10000-shaped workload.
//!
//! ```text
//! cargo run --release --example skin_lesions
//! ```
//!
//! Dermatoscopy archives are dominated by benign nevi (`nv` ≈ 67%), while
//! diagnostically critical categories (`bcc`, `df`, `vasc`) are rare and
//! unevenly spread across clinics. This example runs the full selector
//! comparison of the paper's §5 on the HAM10000 profile — Random, FLIPS,
//! Oort, GradClus and TiFL under one seed — and prints a Table 3/4-style
//! summary row for each.

use flips::prelude::*;

fn main() -> Result<(), FlipsError> {
    let profile = DatasetProfile::ham10000();
    println!(
        "HAM10000-profile federation: {} classes, dominant 'nv' prior {:.0}%",
        profile.classes,
        profile.class_priors[5] * 100.0
    );
    println!();
    println!(
        "{:<10} {:>14} {:>10} {:>12} {:>14}",
        "selector", "rounds-to-60%", "peak acc", "MiB-to-60%", "clusters (k)"
    );

    for kind in SelectorKind::all() {
        let report = SimulationBuilder::new(profile.clone())
            .parties(80)
            .rounds(100)
            .participation(0.20)
            .alpha(0.3)
            .algorithm(FlAlgorithm::fedyogi())
            .selector(kind)
            .clustering_restarts(10)
            .seed(11)
            .run()?;

        let rtt = report
            .rounds_to_target()
            .map(|r| r.to_string())
            .unwrap_or_else(|| format!(">{}", report.meta.rounds));
        let mib = report
            .history
            .bytes_to_target(report.meta.target_accuracy)
            .map(|b| format!("{:.1}", b as f64 / (1024.0 * 1024.0)))
            .unwrap_or_else(|| "-".into());
        let k = report.meta.k.map(|k| k.to_string()).unwrap_or_else(|| "-".into());
        println!(
            "{:<10} {:>14} {:>10.3} {:>12} {:>14}",
            kind.label(),
            rtt,
            report.peak_accuracy(),
            mib,
            k
        );
    }

    println!();
    println!("(lower rounds/MiB to target and higher peak accuracy are better)");
    Ok(())
}
