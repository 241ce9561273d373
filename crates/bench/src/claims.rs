//! The paper's claims as checks. `crates/bench/claims.json` states each
//! claim (one JSON object per line): what is claimed, the paper's value, a
//! tolerance, the workload size, the committed measured value and verdict,
//! and why a claim is not reproduced. [`measure`] takes the value of each
//! claim from one experiment's rows and [`decide`] judges it; `repro
//! --check` fails when a verdict is new, missing or changed, or a value
//! moves by more than its tolerance. EXPERIMENTS.md carries the same table,
//! rendered by [`markdown`].

use respec::targets;
use respec::trace::json::{Json, JsonObject};
use respec_rodinia::Workload;

use crate::geomean;
use crate::report::{format_num, label, value, Row, Table};

/// Where the committed claims live.
pub const CLAIMS_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/claims.json");

/// How a measured value compares with the paper's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// See [`Rule`].
    Reproduced,
    /// See [`Rule`].
    Partial,
    /// See [`Rule`].
    NotReproduced,
}

impl Verdict {
    /// The verdict's name in `claims.json`.
    pub fn tag(self) -> &'static str {
        match self {
            Verdict::Reproduced => "reproduced",
            Verdict::Partial => "partial",
            Verdict::NotReproduced => "not_reproduced",
        }
    }
}

/// How a claim's measured value is judged against the paper's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// Reproduced within 5 % of the paper's value; partial when both lie on
    /// the same side of 1 (2 % dead band), i.e. the same direction at a
    /// different magnitude; otherwise not reproduced. A claim that holds
    /// or not measures 1 or 0 against the paper's 1.
    Near,
    /// Reproduced when the value is at least the claimed one.
    AtLeast,
}

impl Rule {
    /// The verdict for `measured` against `paper`.
    pub fn verdict(self, paper: f64, measured: f64) -> Verdict {
        let side = |x: f64| (x > 1.02) as i8 - (x < 0.98) as i8;
        match self {
            Rule::AtLeast if measured >= paper => Verdict::Reproduced,
            Rule::Near if (measured / paper - 1.0).abs() <= 0.05 => Verdict::Reproduced,
            Rule::Near if side(measured) == side(paper) => Verdict::Partial,
            _ => Verdict::NotReproduced,
        }
    }
}

/// One claim of `claims.json`.
#[derive(Clone, Debug)]
pub struct Claim {
    /// Stable identifier, `<figure>.<claim>`.
    pub id: String,
    /// The experiment that decides it (one of [`crate::report::FIGS`]).
    pub figure: String,
    /// What is claimed.
    pub claim: String,
    /// The paper's value (for this repository's own claims, the claimed one).
    pub paper: f64,
    /// The measured value.
    pub measured: f64,
    /// How far `measured` may move without failing `--check`.
    pub tolerance: f64,
    /// Workload size it was measured at (`small` / `large`).
    pub size: String,
    /// The verdict.
    pub verdict: Verdict,
    /// Why it is not reproduced (empty when it is).
    pub reason: String,
}

impl Claim {
    /// The claim as one line of `claims.json`.
    pub fn json(&self) -> String {
        JsonObject::new()
            .str("id", &self.id)
            .str("figure", &self.figure)
            .str("claim", &self.claim)
            .f64("paper", self.paper)
            .f64("measured", self.measured)
            .f64("tolerance", self.tolerance)
            .str("size", &self.size)
            .str("verdict", self.verdict.tag())
            .str("reason", &self.reason)
            .finish()
    }
}

/// The name of a workload size in `claims.json`.
pub fn size_name(workload: Workload) -> &'static str {
    match workload {
        Workload::Small => "small",
        Workload::Large => "large",
    }
}

/// Parses `claims.json`.
///
/// # Errors
///
/// Names the first line that is not a complete claim.
pub fn parse(text: &str) -> Result<Vec<Claim>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let bad = |what: String| format!("claims.json line {}: {what}", i + 1);
        let json = Json::parse(line).map_err(bad)?;
        let text = |key: &str| match json.get(key).and_then(Json::as_str) {
            Some(s) => Ok(s.to_string()),
            None => Err(bad(format!("no string {key:?}"))),
        };
        let number = |key: &str| match json.get(key) {
            Some(Json::Null) => Ok(f64::NAN),
            v => v
                .and_then(Json::as_f64)
                .ok_or_else(|| bad(format!("no number {key:?}"))),
        };
        let verdict = text("verdict")?;
        out.push(Claim {
            id: text("id")?,
            figure: text("figure")?,
            claim: text("claim")?,
            paper: number("paper")?,
            measured: number("measured")?,
            tolerance: number("tolerance")?,
            size: text("size")?,
            verdict: [
                Verdict::Reproduced,
                Verdict::Partial,
                Verdict::NotReproduced,
            ]
            .into_iter()
            .find(|v| v.tag() == verdict)
            .ok_or_else(|| bad(format!("unknown verdict {verdict:?}")))?,
            reason: text("reason")?,
        });
    }
    Ok(out)
}

/// One measured claim value: the claim's id within its figure, the value
/// and its rule.
pub type Measurement<'a> = (&'a str, f64, Rule);

/// Judges the measurements of experiment `figure` at `size` against the
/// committed claims. Returns the claims as decided now (statement, paper
/// value and reason from the committed row of that size, else of any
/// size), and one problem per claim that is new, missing, changed its
/// verdict or moved by more than its tolerance.
pub fn decide(
    committed: &[Claim],
    figure: &str,
    size: &str,
    measured: &[Measurement],
) -> (Vec<Claim>, Vec<String>) {
    let (mut decided, mut problems) = (Vec::new(), Vec::new());
    for &(name, value, rule) in measured {
        let id = format!("{figure}.{name}");
        let at_size = committed.iter().find(|c| c.id == id && c.size == size);
        let Some(spec) = at_size.or_else(|| committed.iter().find(|c| c.id == id)) else {
            problems.push(format!("{id}: new claim with no row in claims.json"));
            continue;
        };
        let verdict = rule.verdict(spec.paper, value);
        match at_size {
            None => problems.push(format!("{id}: new claim at size {size}")),
            Some(c) if c.verdict != verdict => problems.push(format!(
                "{id}: verdict {} -> {}",
                c.verdict.tag(),
                verdict.tag()
            )),
            Some(c) if (value - c.measured).abs() > c.tolerance || value.is_nan() => {
                problems.push(format!(
                    "{id}: measured {} -> {value} (tolerance {})",
                    c.measured, c.tolerance
                ))
            }
            Some(_) => {}
        }
        let size = size.to_string();
        decided.push(Claim {
            measured: value,
            verdict,
            size,
            ..spec.clone()
        });
    }
    for c in committed
        .iter()
        .filter(|c| c.size == size && c.figure == figure)
    {
        if !measured.iter().any(|m| c.id == format!("{figure}.{}", m.0)) {
            problems.push(format!("{}: missing (committed {})", c.id, c.verdict.tag()));
        }
    }
    (decided, problems)
}

/// The claims as the markdown table EXPERIMENTS.md carries (and `repro`
/// prints after each experiment).
pub fn markdown(claims: &[Claim]) -> String {
    let mut out = String::from(
        "| id | claim | paper | measured | size | verdict | why not reproduced |\n\
         |---|---|---|---|---|---|---|\n",
    );
    for c in claims {
        let num = |v: f64| match v.fract() {
            0.0 => format!("{v:.0}"),
            _ => format_num(v),
        };
        out += &format!(
            "| `{}` | {} | {} | {} | {} | {} | {} |\n",
            c.id,
            c.claim,
            num(c.paper),
            num(c.measured),
            c.size,
            c.verdict.tag(),
            c.reason
        );
    }
    out
}

fn flag(holds: bool) -> f64 {
    f64::from(u8::from(holds))
}

fn share<T>(items: &[T], pred: impl Fn(&T) -> bool) -> f64 {
    items.iter().filter(|i| pred(i)).count() as f64 / items.len() as f64
}

fn geo<'r>(rows: impl Iterator<Item = &'r Row>, f: impl Fn(&Row) -> f64) -> f64 {
    geomean(&rows.map(f).collect::<Vec<_>>())
}

/// The value of every claim one experiment of [`crate::report::FIGS`]
/// decides, from the tables it printed; ids drop the `<figure>.` prefix.
pub fn measure(fig: &str, tables: &[Table]) -> Vec<Measurement<'static>> {
    use Rule::{AtLeast, Near};
    let rows = &tables[0].rows[..];
    let speedup = |r: &Row| value(r, "speedup");
    match fig {
        "fig13" => {
            let g = |key| geo(rows.iter(), |r| value(r, key));
            let (t, b) = (g("thread_only"), g("block_only"));
            let never_loses = rows.iter().all(|r| {
                value(r, "combined") >= value(r, "thread_only").max(value(r, "block_only"))
            });
            let flat = share(rows, |r| value(r, "combined") < 1.05);
            vec![
                ("thread_only_geomean", t, Near),
                ("block_only_geomean", b, Near),
                ("combined_geomean", g("combined"), Near),
                ("block_beats_thread", flag(b > t), Near),
                ("combined_never_loses", flag(never_loses), Near),
                ("most_kernels_flat", flat, Near),
            ]
        }
        "fig14" => {
            let block = |r: &Row| value(r, "block_total");
            let thread = |r: &Row| value(r, "thread_total");
            let cell = |b, t| rows.iter().find(|r| block(r) == b && thread(r) == t);
            let block_wins = |&f: &f64| cell(f, 1.0).map(speedup) > cell(1.0, f).map(speedup);
            let wide: Vec<&Row> = rows.iter().filter(|r| thread(r) >= 16.0).collect();
            let over_26: Vec<&Row> = rows.iter().filter(|r| block(r) > 26.0).collect();
            let peak =
                rows.iter().fold(
                    &rows[0],
                    |best, r| {
                        if speedup(r) > speedup(best) {
                            r
                        } else {
                            best
                        }
                    },
                );
            vec![
                (
                    "block_beats_thread",
                    share(&[2.0, 4.0, 8.0, 16.0, 32.0], block_wins),
                    Near,
                ),
                (
                    "thread16_collapse",
                    share(&wide, |r| speedup(r) < 1.0 || speedup(r).is_nan()),
                    Near,
                ),
                (
                    "block_over_26_pruned",
                    share(&over_26, |r| speedup(r).is_nan()),
                    Near,
                ),
                ("peak_block", block(peak), Near),
            ]
        }
        "fig15" => {
            let peak = rows.iter().map(speedup).fold(f64::NAN, f64::max);
            vec![("peak_speedup", peak, Near)]
        }
        "table2" => {
            let ratio = |i: usize, key| value(&rows[i], key) / value(&rows[0], key);
            let runtime = |i: usize| value(&rows[i], "runtime_s");
            let block_fastest = runtime(1) < runtime(0) && runtime(1) < runtime(2);
            vec![
                ("l2_l1_read_block", ratio(1, "l2_l1_read_bytes"), Near),
                ("l2_l1_read_thread", ratio(2, "l2_l1_read_bytes"), Near),
                ("l1_l2_write_block", ratio(1, "l1_l2_write_bytes"), Near),
                ("l1_l2_write_thread", ratio(2, "l1_l2_write_bytes"), Near),
                ("shmem_read_thread", ratio(2, "shmem_read_req"), Near),
                ("block_fastest", flag(block_fastest), Near),
            ]
        }
        "fig16" => {
            let on = |target: fn() -> respec::TargetDesc| {
                let name = target().name;
                rows.iter().filter(move |r| label(r, "target") == name)
            };
            let pg_opt = |target| geo(on(target), |r| value(r, "speedup_pg_opt"));
            let parity = rows
                .iter()
                .filter(|r| !matches!(label(r, "app"), "lavaMD" | "srad_v1"))
                .all(|r| (value(r, "speedup_pg") - 1.0).abs() <= 0.05);
            let clang = |target, app: &str| {
                let row = on(target).find(|r| label(r, "app") == app);
                row.map_or(f64::NAN, |r| value(r, "clang_s"))
            };
            let amd_wins = |app: &&str| clang(targets::rx6800, app) < clang(targets::a4000, app);
            let fp64 = share(&["particlefilter", "lavaMD", "hotspot3D"], amd_wins);
            vec![
                ("pg_parity", flag(parity), Near),
                ("pg_opt_geomean_a4000", pg_opt(targets::a4000), Near),
                ("pg_opt_geomean_a100", pg_opt(targets::a100), Near),
                ("pg_opt_geomean_rx6800", pg_opt(targets::rx6800), Near),
                ("pg_opt_geomean_mi210", pg_opt(targets::mi210), Near),
                ("fp64_apps_favor_rx6800", fp64, Near),
            ]
        }
        "fig17" => {
            let over = |key| geo(rows.iter(), |r| value(r, key) / value(r, "rx6800_pg_s"));
            vec![
                ("rx6800_pg_over_a4000_clang", over("a4000_clang_s"), Near),
                ("rx6800_pg_over_a4000_pg", over("a4000_pg_s"), Near),
            ]
        }
        "cpu" => {
            let gpu = rows.iter().filter(|r| label(r, "kind") == "gpu");
            let diverging = gpu.filter(|g| {
                rows.iter().any(|c| {
                    label(c, "app") == label(g, "app")
                        && label(c, "kind") == "cpu"
                        && label(c, "winner") != label(g, "winner")
                })
            });
            vec![("winners_diverge", diverging.count() as f64, AtLeast)]
        }
        "fatbin" => {
            let at_5 = rows.iter().filter(|r| value(r, "epsilon") == 0.05);
            let compressed = at_5.filter(|r| value(r, "compressed") == 1.0).count();
            vec![("compression_eps5", compressed as f64, AtLeast)]
        }
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed() -> (String, Vec<Claim>) {
        let text = std::fs::read_to_string(CLAIMS_PATH).expect("claims.json is committed");
        let claims = parse(&text).expect("claims.json parses");
        (text, claims)
    }

    #[test]
    fn committed_claims_are_complete_and_round_trip() {
        let (text, claims) = committed();
        assert!(!claims.is_empty());
        for (line, claim) in text.lines().zip(&claims) {
            assert_eq!(claim.json(), line, "{} does not round-trip", claim.id);
            assert_eq!(
                claim.verdict == Verdict::Reproduced,
                claim.reason.is_empty(),
                "{}: a reason is given exactly when the claim is not reproduced",
                claim.id
            );
        }
    }

    #[test]
    fn check_fails_on_a_flipped_verdict_not_on_a_move_within_tolerance() {
        let (_, claims) = committed();
        let spec = claims
            .iter()
            .find(|c| c.id == "fig13.block_only_geomean")
            .expect("committed claim");
        let (size, one) = (spec.size.as_str(), [spec.clone()]);
        let check = |committed: &[Claim], measured: f64| {
            decide(
                committed,
                "fig13",
                size,
                &[("block_only_geomean", measured, Rule::Near)],
            )
            .1
        };

        assert!(check(&one, spec.measured).is_empty());
        assert!(check(&one, spec.measured + spec.tolerance / 2.0).is_empty());
        let moved = check(&one, spec.measured + spec.tolerance * 2.0);
        assert!(moved.iter().any(|p| p.contains("measured")), "{moved:?}");

        let mut flipped = one.clone();
        flipped[0].verdict = Verdict::Partial;
        let problems = check(&flipped, spec.measured);
        assert!(
            problems.iter().any(|p| p.contains("verdict")),
            "{problems:?}"
        );

        let new = check(&[], spec.measured);
        assert!(new[0].contains("new claim"), "{new:?}");
        let missing = decide(&one, "fig13", size, &[]).1;
        assert!(missing[0].contains("missing"), "{missing:?}");
    }

    /// EXPERIMENTS.md holds the claims table between two markers;
    /// `RESPEC_UPDATE_GOLDENS=1` rewrites that section from claims.json.
    #[test]
    fn experiments_md_holds_the_claims_table() {
        const BEGIN: &str = "<!-- claims:begin -->\n";
        const END: &str = "<!-- claims:end -->";
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
        let doc = std::fs::read_to_string(path).expect("EXPERIMENTS.md");
        let start = doc.find(BEGIN).expect("begin marker") + BEGIN.len();
        let end = start + doc[start..].find(END).expect("end marker");
        let table = markdown(&committed().1);
        if std::env::var("RESPEC_UPDATE_GOLDENS").is_ok_and(|v| v == "1") {
            let updated = format!("{}{table}{}", &doc[..start], &doc[end..]);
            std::fs::write(path, updated).expect("rewrite EXPERIMENTS.md");
            return;
        }
        assert_eq!(
            doc[start..end],
            table,
            "EXPERIMENTS.md's claims table is stale; regenerate with \
             RESPEC_UPDATE_GOLDENS=1 cargo test -p respec-bench --lib claims"
        );
    }
}
