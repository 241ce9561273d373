//! One renderer for every experiment. A row is a list of `(key, cell)`
//! fields; the same list prints as an aligned table or as one JSON object
//! per line (`--json`, the format of the committed `BENCH_*.json` files).

use std::path::Path;

use respec::trace::json::JsonObject;
use respec::TuneOptions;
use respec_rodinia::Workload;

use crate::*;

/// One field value of a result row.
#[derive(Clone, Debug)]
pub enum Cell {
    /// A label.
    Str(String),
    /// A signed factor.
    Int(i64),
    /// A count, size or flag.
    Count(u64),
    /// A measured number.
    Num(f64),
    /// A number that may be absent (an illegal or pruned configuration).
    MaybeNum(Option<f64>),
}

/// A result row: its fields in output order.
pub type Row = Vec<(&'static str, Cell)>;

fn field<'r>(row: &'r Row, key: &str) -> &'r Cell {
    let found = row.iter().find(|(k, _)| *k == key);
    &found
        .unwrap_or_else(|| panic!("row has no field {key:?}"))
        .1
}

/// A numeric field of `row` (NaN for an absent number).
pub fn value(row: &Row, key: &str) -> f64 {
    match field(row, key) {
        Cell::Int(v) => *v as f64,
        Cell::Count(v) => *v as f64,
        Cell::Num(v) => *v,
        Cell::MaybeNum(v) => v.unwrap_or(f64::NAN),
        Cell::Str(s) => panic!("field {key:?} is the label {s:?}"),
    }
}

/// A label field of `row`.
pub fn label<'r>(row: &'r Row, key: &str) -> &'r str {
    match field(row, key) {
        Cell::Str(s) => s,
        other => panic!("field {key:?} is not a label: {other:?}"),
    }
}

/// Three decimals, in scientific notation for very small or very large
/// magnitudes.
pub fn format_num(v: f64) -> String {
    if v != 0.0 && (v.abs() < 1e-2 || v.abs() >= 1e5) {
        format!("{v:.3e}")
    } else {
        format!("{v:.3}")
    }
}

/// The rows of one figure (or one table of a figure).
#[derive(Debug)]
pub struct Table {
    /// The `"figure"` discriminator every JSON line carries.
    pub figure: &'static str,
    /// Heading of the printed table.
    pub title: &'static str,
    /// The rows, in output order.
    pub rows: Vec<Row>,
}

impl Table {
    /// One flat JSON object per row, newline-terminated, `"figure"` first.
    pub fn json_lines(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            let object = row.iter().fold(
                JsonObject::new().str("figure", self.figure),
                |o, (key, cell)| match cell {
                    Cell::Str(s) => o.str(key, s),
                    Cell::Int(v) => o.i64(key, *v),
                    Cell::Count(v) => o.u64(key, *v),
                    Cell::Num(v) => o.f64(key, *v),
                    Cell::MaybeNum(v) => o.opt_f64(key, *v),
                },
            );
            out += &object.finish();
            out.push('\n');
        }
        out
    }

    /// The rows as an aligned text table under the title; labels align
    /// left, numbers right, `--` marks an absent number.
    pub fn text(&self) -> String {
        let mut out = format!("== {} ==\n", self.title);
        let Some(first) = self.rows.first() else {
            return out;
        };
        let mut lines = vec![first.iter().map(|(key, _)| key.to_string()).collect()];
        lines.extend(self.rows.iter().map(|row| {
            row.iter()
                .map(|(_, cell)| match cell {
                    Cell::Str(s) => s.clone(),
                    Cell::Int(v) => v.to_string(),
                    Cell::Count(v) => v.to_string(),
                    Cell::Num(v) | Cell::MaybeNum(Some(v)) => format_num(*v),
                    Cell::MaybeNum(None) => "--".to_string(),
                })
                .collect()
        }));
        let width = |i: usize| {
            lines
                .iter()
                .map(|l: &Vec<String>| l[i].chars().count())
                .max()
        };
        for line in &lines {
            for (i, text) in line.iter().enumerate() {
                let (sep, w) = (if i == 0 { "" } else { "  " }, width(i).unwrap_or(0));
                out += &match first[i].1 {
                    Cell::Str(_) => format!("{sep}{text:<w$}"),
                    _ => format!("{sep}{text:>w$}"),
                };
            }
            out.truncate(out.trim_end().len());
            out.push('\n');
        }
        out
    }
}

/// Every experiment, in the order `--fig all` runs them. `--fig` names
/// each without the `fig` prefix (`13`, `table1`, `cpu`).
pub const FIGS: [&str; 9] = [
    "table1", "fig13", "fig14", "fig15", "fig16", "fig17", "table2", "cpu", "fatbin",
];

/// Runs experiments at one size with one tuning configuration. Fig. 16's
/// rows are kept, so a later Fig. 17 is a view of them and measures no
/// composite twice; without them Fig. 17 measures only the three composites
/// per app it reads.
pub struct Session<'a> {
    workload: Workload,
    options: &'a TuneOptions,
    cache_dir: Option<&'a Path>,
    fig16: Option<Vec<Row>>,
}

impl<'a> Session<'a> {
    /// A session at `workload`; the fat-binary experiment tunes into
    /// `cache_dir` when given.
    pub fn new(
        workload: Workload,
        options: &'a TuneOptions,
        cache_dir: Option<&'a Path>,
    ) -> Session<'a> {
        Session {
            workload,
            options,
            cache_dir,
            fig16: None,
        }
    }

    /// Measures one experiment of [`FIGS`] at its sweep.
    pub fn measure(&mut self, fig: &str) -> Vec<Table> {
        let (w, options) = (self.workload, self.options);
        let table = |figure, title, rows| {
            vec![Table {
                figure,
                title,
                rows,
            }]
        };
        match fig {
            "table1" => table("table1", "Table I: GPUs used for evaluation", table1_rows()),
            "fig13" => table(
                "fig13",
                "Fig. 13: best kernel speedup per coarsening strategy (A100)",
                fig13_data(w, &FIG13_TOTALS, options),
            ),
            "fig14" => table(
                "fig14",
                "Fig. 14: lud speedup over (block, thread) total factors (A100)",
                fig14_data(w, &FIG14_BLOCKS, &FIG14_THREADS),
            ),
            "fig15" => table(
                "fig15",
                "Fig. 15: lud speedup, block coarsening in x only x thread totals (A100)",
                fig15_data(w, &FIG15_BLOCK_X, &FIG15_THREADS),
            ),
            "fig16" => {
                let gpus = FIG16_TARGETS.map(|t| t());
                let rows = fig16_data(w, &gpus, &FIG16_TOTALS, options);
                self.fig16 = Some(rows.clone());
                table(
                    "fig16",
                    "Fig. 16: Rodinia composite seconds and speedup over clang (hipify+clang on AMD)",
                    rows,
                )
            }
            "fig17" => {
                let rows = match &self.fig16 {
                    Some(fig16) => fig17_view(fig16),
                    None => fig17_data(w, &FIG16_TOTALS, options),
                };
                table(
                    "fig17",
                    "Fig. 17: cross-vendor comparison (baseline: clang on A4000)",
                    rows,
                )
            }
            "table2" => table(
                "table2",
                "Table II: profiling data for lud (A100)",
                table2_data(w),
            ),
            "cpu" => table(
                "cpu_tune",
                "CPU retargeting sweep: winner per app x target",
                cpu_tune_data(w, &CPU_TOTALS),
            ),
            "fatbin" => {
                let (coverage, dispatch) =
                    fatbin_data(self.cache_dir, w, &FATBIN_TOTALS, &FATBIN_EPSILONS, options);
                let mut tables = table(
                    "fatbin",
                    "Fat binaries: minimal variant set per app x slowdown budget",
                    coverage,
                );
                tables.extend(table(
                    "fatbin_dispatch",
                    "Fat binaries: the variant each target's launch dispatches to",
                    dispatch,
                ));
                tables
            }
            other => panic!("unknown experiment {other:?}"),
        }
    }
}
