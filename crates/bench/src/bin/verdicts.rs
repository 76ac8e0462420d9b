//! `verdicts` — evaluate the paper-claim checks against previously
//! saved figure CSVs (`repro ... --out DIR` output), without re-running
//! any simulation.
//!
//! ```text
//! verdicts [results-dir]
//! ```

use std::path::Path;

fn main() {
    let dir = std::env::args().nth(1).unwrap_or_else(|| "results".into());
    let figs = match benchkit::report::load_dir(Path::new(&dir)) {
        Ok(figs) => figs,
        Err(e) => {
            eprintln!("cannot read {dir}: {e}");
            std::process::exit(1);
        }
    };
    println!("loaded {} figures from {dir}", figs.len());
    let verdicts = benchkit::verdict::evaluate(&figs);
    print!("{}", benchkit::verdict::render(&verdicts));
    let failed = verdicts.iter().filter(|v| !v.pass).count();
    println!(
        "\n{} of {} claims reproduced",
        verdicts.len() - failed,
        verdicts.len()
    );
    if failed > 0 {
        std::process::exit(1);
    }
}
