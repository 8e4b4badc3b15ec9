//! Runs every experiment and prints the full reproduction report
//! (the source of EXPERIMENTS.md's measured columns).
use wormhole_experiments::*;

fn main() {
    let scale = Scale::from_env();
    let quick = scale == Scale::Quick;
    println!("# wormhole — full reproduction run ({scale:?} scale)\n");
    eprintln!("generating Internet + campaign…");
    let ctx = PaperContext::generate(scale);
    for report in artefacts(&ctx, quick) {
        println!("{report}");
    }
    println!(
        "campaign probing budget: {} packets (≈{:.1} h at the paper's 25 pps)",
        ctx.result.probes,
        ctx.result.probes as f64 / 25.0 / 3600.0
    );
    println!();
    println!("{}", scaling::run(quick));
    println!("\nAll experiments completed with every qualitative assertion holding.");
}
