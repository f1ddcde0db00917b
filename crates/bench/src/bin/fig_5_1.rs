//! Figure 5-1: theoretical performance gain of H-ORAM over Path ORAM.
//!
//! Regenerates the paper's curves — overhead-reduction factor versus the
//! storage/memory ratio `N/n`, one curve per grouping factor `c`, Z = 4.
//! The paper's Eq. 5-4 amortizes the shuffle per I/O access but compares
//! against the baseline's per-request cost, so both gains are printed:
//! per I/O access (Table 5-1's unit) and per request.
//!
//! ```sh
//! cargo run --release -p bench --bin fig_5_1
//! ```

use horam::analysis::gain::paper_sweep;
use horam::analysis::report::ExperimentReport;
use horam::analysis::table::Table;

fn main() {
    // Write cost ratio 1.0: symmetric units, as in the paper's derivation.
    let points = paper_sweep(1.0);
    let ratios = [2u64, 4, 8, 16, 32, 64, 128, 256, 512, 1024];
    let cs = [1u32, 2, 4, 8, 16];

    println!("Figure 5-1 — theoretical gain over tree-top Path ORAM (Z=4)\n");

    for (title, metric) in [
        ("gain per request", 0),
        ("gain per I/O access (Table 5-1 unit)", 1),
    ] {
        let mut header = vec!["N/n".to_string()];
        header.extend(cs.iter().map(|c| format!("c={c}")));
        let mut table = Table::new(header.iter().map(String::as_str).collect());
        for &ratio in &ratios {
            let mut row = vec![ratio.to_string()];
            for &c in &cs {
                let point = points
                    .iter()
                    .find(|p| p.c == c && p.ratio == ratio)
                    .expect("grid point");
                let value = if metric == 0 {
                    point.gain_per_request
                } else {
                    point.gain_per_io_access
                };
                row.push(format!("{value:.2}"));
            }
            table.row(row);
        }
        println!("{title}:\n{table}");
    }

    // The quotes the paper makes about this figure, versus our model.
    let at = |c: u32, ratio: u64| {
        points
            .iter()
            .find(|p| p.c == c && p.ratio == ratio)
            .expect("point")
    };
    let mut report = ExperimentReport::new(
        "fig-5-1",
        "Theoretical performance gain over Path ORAM",
        "closed-form model, Z=4, sweep c x N/n",
    );
    report.compare(
        "gain at c=4, N/n=8",
        "~8x",
        format!(
            "{:.1}x per request / {:.1}x per I/O access",
            at(4, 8).gain_per_request,
            at(4, 8).gain_per_io_access
        ),
    );
    let best_c4 = points
        .iter()
        .filter(|p| p.c == 4)
        .map(|p| p.gain_per_request)
        .fold(f64::MIN, f64::max);
    let best_c8 = points
        .iter()
        .filter(|p| p.c == 8)
        .map(|p| p.gain_per_request)
        .fold(f64::MIN, f64::max);
    report.compare(
        "best gain",
        "12x or 16x",
        format!("{best_c4:.1}x (c=4) / {best_c8:.1}x (c=8) per request, at N/n=2"),
    );
    report.compare(
        "ideal no-shuffle gain at N/n=8",
        "32x",
        format!("{:.0}x", at(4, 8).gain_ideal),
    );
    report.note(
        "The paper's Eq. 5-4 amortizes the shuffle per I/O access but compares against \
         the baseline's per-request cost; its quoted 8x falls between our two \
         consistently-defined metrics. Shape (higher c => higher gain, decay with N/n) \
         is reproduced by both.",
    );
    println!("{}", report.render());
}
