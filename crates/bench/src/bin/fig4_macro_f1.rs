//! Regenerates **Fig. 4** and **Fig. 5**: mean macro-F1 and micro-F1
//! learning curves per domain and training set size, for the baseline,
//! automatic FieldSwap (field-to-field, type-to-type), and — on Earnings
//! and Loan Payments — the human-expert configuration. Both figures come
//! from the same runs; micro-F1 is the instance-weighted aggregate.
//!
//! Shape expectations from the paper (Section IV-C1): FieldSwap is
//! neutral-or-better everywhere; biggest gains on Earnings (4–11 macro-F1
//! points), smallest on FARA; type-to-type wins at 10 documents,
//! field-to-field catches up at 50–100; human expert >= automatic.
//! Micro-F1 gains are smaller than macro-F1 gains, because the largest
//! improvements come from rare fields, which macro-F1 amplifies and
//! micro-F1 discounts.

use fieldswap_bench::{BinArgs, TablePrinter};
use fieldswap_datagen::Domain;
use fieldswap_eval::{Arm, PointSummary};

fn main() {
    let args = BinArgs::parse();
    let sizes = [10usize, 50, 100];
    let harness = args.build_harness();

    println!(
        "Fig. 4/5 — mean macro-F1 and micro-F1 ({} protocol, {} samples x {} trials, {} jobs)\n",
        if args.full { "full" } else { "quick" },
        harness.options().n_samples,
        harness.options().n_trials,
        fieldswap_eval::effective_jobs(harness.options().jobs),
    );

    // The whole figure is one grid: every experiment of every domain and
    // size shares the worker pool, then the table prints in grid order.
    let mut points: Vec<(Domain, usize, Arm)> = Vec::new();
    for domain in args.domains() {
        let mut arms = vec![Arm::Baseline, Arm::AutoFieldToField, Arm::AutoTypeToType];
        if matches!(domain, Domain::Earnings | Domain::LoanPayments) {
            arms.push(Arm::HumanExpert);
        }
        for &size in &sizes {
            for &arm in &arms {
                points.push((domain, size, arm));
            }
        }
    }
    let all: Vec<PointSummary> = harness.run_grid(&points);

    let mut results = points.iter().zip(&all).peekable();
    for domain in args.domains() {
        println!("== {} ==", domain.name());
        let t = TablePrinter::new(&[
            ("train size", 10),
            ("arm", 28),
            ("macro-F1", 9),
            ("Δ vs baseline", 13),
            ("micro-F1", 9),
            ("Δ micro", 8),
            ("synthetics", 10),
        ]);
        let mut baseline = None;
        while let Some(((d, size, arm), p)) = results.peek() {
            if *d != domain {
                break;
            }
            if *arm == Arm::Baseline {
                baseline = Some((p.macro_f1, p.micro_f1));
            }
            let delta =
                |v: f64, b: Option<f64>| b.map(|b| format!("{:+.2}", v - b)).unwrap_or_default();
            t.row(&[
                size.to_string(),
                p.arm.clone(),
                format!("{:.2}", p.macro_f1),
                delta(p.macro_f1, baseline.map(|b| b.0)),
                format!("{:.2}", p.micro_f1),
                delta(p.micro_f1, baseline.map(|b| b.1)),
                format!("{:.0}", p.synthetics),
            ]);
            results.next();
        }
        println!();
    }

    println!("paper shape check (Section IV-C1): gains of 1-4 (FCC), 2-5 (Brokerage), 4-11 (Earnings) macro-F1 points;");
    println!("t2t > f2f at 10 docs; f2f matches or passes t2t at 50-100; expert >= automatic;");
    println!("micro-F1 gains smaller than macro-F1 gains (2-5 Earnings, 1-5 Brokerage): rare fields drive the macro advantage.");
    args.maybe_write_json(&all);
    args.finish();
}
