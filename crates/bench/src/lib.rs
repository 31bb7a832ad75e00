//! Shared configuration and reporting helpers for the benchmark binaries.
//!
//! Every table and figure of the paper's §6 has a binary in `src/bin`:
//!
//! | target | reproduces |
//! |---|---|
//! | `table1` | Table 1 (data sets) |
//! | `table2` | Table 2 (workload characteristics) |
//! | `fig4` | the Figure 4 motivating example |
//! | `fig9a` | Fig. 9(a): error vs. size, P workload, XMark + IMDB |
//! | `fig9b` | Fig. 9(b): error vs. size, P+V workload, XMark + IMDB |
//! | `fig9c` | Fig. 9(c): CST vs. XSKETCH error ratio, all datasets |
//! | `negative` | §6.2's negative-workload observation |
//! | `singlepath` | §6.2's Twig- vs. Structural-XSKETCH comparison |
//! | `ablation` | design-choice ablations (DESIGN.md) |
//!
//! The binaries honour two environment variables so full-paper scale and
//! quick smoke runs use the same code: `XTWIG_SCALE` (dataset scale,
//! default 0.25; the paper's sizes are scale 1.0) and `XTWIG_QUERIES`
//! (workload size, default 250; the paper uses 1000/500).

/// Run-scale configuration read from the environment.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Dataset scale factor (1.0 = the paper's Table 1 sizes).
    pub scale: f64,
    /// Queries per workload (the paper uses 1000; 500 for Fig. 9(c)).
    pub queries: usize,
    /// Synopsis byte budgets swept by the figure binaries.
    pub budgets_bytes: Vec<usize>,
}

impl BenchConfig {
    /// Reads `XTWIG_SCALE` / `XTWIG_QUERIES` with smoke-run defaults.
    pub fn from_env() -> BenchConfig {
        let scale: f64 = std::env::var("XTWIG_SCALE")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.25);
        let queries = std::env::var("XTWIG_QUERIES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(250);
        // Budget checkpoints track the paper's 10–50 KB x-axis, scaled the
        // same way the documents are.
        let budgets_bytes = [15.0, 20.0, 30.0, 40.0, 50.0]
            .iter()
            .map(|kb| (kb * 1024.0 * scale.max(0.05)) as usize)
            .collect();
        BenchConfig {
            scale,
            queries,
            budgets_bytes,
        }
    }

    /// Prints the run configuration header.
    pub fn announce(&self, what: &str) {
        println!("# {what}");
        println!(
            "# scale={} queries={} budgets={:?} (set XTWIG_SCALE / XTWIG_QUERIES for full runs)",
            self.scale, self.queries, self.budgets_bytes
        );
    }
}

/// Prints one CSV row (comma-joined) after a `data,` prefix so series are
/// easy to grep out of the mixed human/machine output.
pub fn row(fields: &[String]) {
    println!("data,{}", fields.join(","));
}

/// Formats a byte size in KB with one decimal, as the paper's axes do.
pub fn kb(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / 1024.0)
}

/// Formats an error as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}
