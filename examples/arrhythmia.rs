//! Arrhythmia detection — the paper's motivating senior-care workload
//! (§2.2, §7).
//!
//! ```text
//! cargo run --release --example arrhythmia
//! ```
//!
//! ECG wearables record overwhelmingly normal (`N`) heartbeats; abnormal
//! rhythms live on the few devices worn by people with heart ailments.
//! Random participant selection keeps picking majority-`N` parties, so
//! the global model drifts toward "everything is normal" — exactly the
//! failure mode that makes arrhythmia detection miss the patients it
//! exists for. This example compares Random and FLIPS selection on the
//! MIT-BIH-shaped profile and prints the recall trajectory of the
//! *rarest* beat class, reproducing the Figure 13 (left) effect.

use flips::prelude::*;

fn run(selector: SelectorKind) -> Result<SimulationReport, FlipsError> {
    SimulationBuilder::new(DatasetProfile::ecg())
        .parties(80)
        .rounds(80)
        .participation(0.20)
        .alpha(0.3)
        .algorithm(FlAlgorithm::fedyogi())
        .selector(selector)
        .clustering_restarts(10)
        .seed(7)
        .run()
}

fn main() -> Result<(), FlipsError> {
    let profile = DatasetProfile::ecg();
    let rare = profile.rarest_label();
    println!(
        "Rarest beat class: '{}' (prior {:.1}% of all heartbeats)",
        profile.label_names[rare],
        profile.class_priors[rare] * 100.0
    );
    println!();

    let random = run(SelectorKind::Random)?;
    let flips = run(SelectorKind::Flips)?;

    println!("round | balanced accuracy      | recall of '{}'", profile.label_names[rare]);
    println!("      | random    flips        | random    flips");
    let ra = random.history.accuracy_series();
    let fa = flips.history.accuracy_series();
    let rr = random.history.label_recall_series(rare);
    let fr = flips.history.label_recall_series(rare);
    for i in (9..ra.len()).step_by(10) {
        println!(
            "{:5} | {:.3}     {:.3}        | {:.3}     {:.3}",
            i + 1,
            ra[i],
            fa[i],
            rr[i].unwrap_or(0.0),
            fr[i].unwrap_or(0.0),
        );
    }

    println!();
    println!(
        "peak balanced accuracy: random {:.3} vs flips {:.3}",
        random.peak_accuracy(),
        flips.peak_accuracy()
    );
    let peak_rare = |r: &SimulationReport| {
        r.history.label_recall_series(rare).into_iter().flatten().fold(0.0f64, f64::max)
    };
    println!(
        "peak '{}' recall      : random {:.3} vs flips {:.3}",
        profile.label_names[rare],
        peak_rare(&random),
        peak_rare(&flips)
    );
    println!();
    println!(
        "FLIPS clustered the {} wearables into k = {:?} label-distribution groups",
        flips.meta.num_parties, flips.meta.k
    );
    Ok(())
}
