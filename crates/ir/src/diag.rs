//! Unified diagnostics: one user-facing shape for every failure and
//! analysis finding in the pipeline.
//!
//! The compiler grew several disjoint error types (parse, verify, kernel
//! structure, frontend, simulator, tuner). They remain the *sources* of
//! truth — each layer keeps its precise error — but anything shown to a
//! user converts into a [`Diagnostic`] via `From` impls, so the facade
//! (`Compiled::diagnostics()`) and the CLI/bench binaries render every
//! failure uniformly:
//!
//! ```text
//! error[race-ww]: threads (0,1) and (1,0) both write %sm[0] in the same barrier interval
//!   --> @kernel/parallel<block>/parallel<thread>/store#12
//!   = help: guard the store with a single-thread condition or index by the thread id
//! ```

use std::fmt;

use crate::ids::OpId;
use crate::kernel::KernelError;
use crate::parse::ParseError;
use crate::verify::VerifyError;
use crate::{Function, OpKind, ParLevel};

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational; never blocks compilation.
    Note,
    /// Possible problem the analysis could not decide (symbolic bounds,
    /// non-affine indices). Reported, never fatal.
    Warning,
    /// Definite problem: malformed input, or a decidable race/divergence.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One finding or failure, in the uniform user-facing shape.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Severity of the finding.
    pub severity: Severity,
    /// Stable machine-readable code (e.g. `"race-ww"`, `"divergent-barrier"`,
    /// `"parse-error"`). Gates compare findings by code, so codes must not
    /// depend on incidental details like op numbering.
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
    /// Where the finding is anchored: an op path such as
    /// `@kernel/parallel<block>/parallel<thread>/store#12`, or a source
    /// offset for textual inputs. `None` when the failure has no location.
    pub location: Option<String>,
    /// Optional remediation hint.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// Creates an error diagnostic with no location.
    pub fn error(code: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Error,
            code,
            message: message.into(),
            location: None,
            suggestion: None,
        }
    }

    /// Creates a warning diagnostic with no location.
    pub fn warning(code: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            code,
            message: message.into(),
            location: None,
            suggestion: None,
        }
    }

    /// Creates a note diagnostic with no location.
    pub fn note(code: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Note,
            code,
            message: message.into(),
            location: None,
            suggestion: None,
        }
    }

    /// Attaches a location string.
    pub fn with_location(mut self, location: impl Into<String>) -> Diagnostic {
        self.location = Some(location.into());
        self
    }

    /// Attaches the op path of `op` in `func` as the location.
    pub fn at_op(self, func: &Function, op: OpId) -> Diagnostic {
        self.with_location(op_path(func, op))
    }

    /// Attaches a remediation hint.
    pub fn with_suggestion(mut self, suggestion: impl Into<String>) -> Diagnostic {
        self.suggestion = Some(suggestion.into());
        self
    }

    /// Returns `true` for error-level diagnostics.
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        if let Some(loc) = &self.location {
            write!(f, "\n  --> {loc}")?;
        }
        if let Some(s) = &self.suggestion {
            write!(f, "\n  = help: {s}")?;
        }
        Ok(())
    }
}

/// A short structural label for one op kind, used in op paths.
fn path_label(kind: &OpKind) -> String {
    match kind {
        OpKind::Parallel { level } => format!("parallel<{level}>"),
        OpKind::Barrier { level } => format!("barrier<{level}>"),
        OpKind::For => "for".into(),
        OpKind::While => "while".into(),
        OpKind::If => "if".into(),
        OpKind::Load => "load".into(),
        OpKind::Store => "store".into(),
        OpKind::Alloc { space } => format!("alloc<{space}>"),
        OpKind::Call { callee } => format!("call @{callee}"),
        other => format!("{other:?}").to_lowercase(),
    }
}

/// Renders the structural path of `op` inside `func`, e.g.
/// `@kernel/parallel<block>/parallel<thread>/store#12`. The trailing `#N`
/// is the op's arena index, which disambiguates siblings of the same kind.
pub fn op_path(func: &Function, op: OpId) -> String {
    let mut path = Vec::new();
    if find_path(func, func.body(), op, &mut path) {
        let mut out = format!("@{}", func.name());
        for &p in &path {
            out.push('/');
            out.push_str(&path_label(&func.op(p).kind));
        }
        out.push_str(&format!("#{}", op.index()));
        out
    } else {
        format!("@{}/op#{}", func.name(), op.index())
    }
}

fn find_path(func: &Function, region: crate::RegionId, target: OpId, path: &mut Vec<OpId>) -> bool {
    for &op in &func.region(region).ops {
        path.push(op);
        if op == target {
            return true;
        }
        for &r in &func.op(op).regions {
            if find_path(func, r, target, path) {
                return true;
            }
        }
        path.pop();
    }
    false
}

/// A sortable key for stable diagnostic ordering: severity (errors first),
/// then code, then location.
pub fn sort_key(d: &Diagnostic) -> (std::cmp::Reverse<Severity>, &'static str, &str) {
    (
        std::cmp::Reverse(d.severity),
        d.code,
        d.location.as_deref().unwrap_or_default(),
    )
}

impl From<ParseError> for Diagnostic {
    fn from(e: ParseError) -> Diagnostic {
        Diagnostic::error("parse-error", e.message).with_location(format!("byte {}", e.offset))
    }
}

impl From<VerifyError> for Diagnostic {
    fn from(e: VerifyError) -> Diagnostic {
        Diagnostic::error("verify-error", e.message).with_location(format!("@{}", e.function))
    }
}

impl From<KernelError> for Diagnostic {
    fn from(e: KernelError) -> Diagnostic {
        Diagnostic::error("kernel-structure", e.message)
    }
}

/// Marker type so a barrier's level reads well in messages (re-exported for
/// analysis crates building diagnostics about barriers).
pub fn barrier_phrase(level: ParLevel) -> &'static str {
    match level {
        ParLevel::Block => "block-scope barrier",
        ParLevel::Thread => "thread-scope barrier",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_function;

    #[test]
    fn renders_location_and_suggestion() {
        let d = Diagnostic::error("race-ww", "two writes")
            .with_location("@k/store#3")
            .with_suggestion("add a barrier");
        let text = d.to_string();
        assert!(text.contains("error[race-ww]: two writes"));
        assert!(text.contains("--> @k/store#3"));
        assert!(text.contains("= help: add a barrier"));
    }

    #[test]
    fn op_path_walks_structure() {
        let func = parse_function(
            "func @k(%g: index) {
  %c8 = const 8 : index
  parallel<block> (%b) to (%g) {
    %sm = alloc() : memref<8xf32, shared>
    parallel<thread> (%t) to (%c8) {
      %v = load %sm[%t] : f32
      store %v, %sm[%t]
      yield
    }
    yield
  }
  return
}",
        )
        .unwrap();
        let store = crate::walk::collect_ops(&func, func.body())
            .into_iter()
            .find(|&o| matches!(func.op(o).kind, OpKind::Store))
            .unwrap();
        let path = op_path(&func, store);
        assert!(
            path.starts_with("@k/parallel<block>/parallel<thread>/store#"),
            "unexpected path {path}"
        );
    }

    #[test]
    fn severity_orders_errors_highest() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Note);
    }

    #[test]
    fn converts_parse_error() {
        let e = parse_function("func @k(").unwrap_err();
        let d: Diagnostic = e.into();
        assert_eq!(d.code, "parse-error");
        assert!(d.is_error());
        assert!(d.location.is_some());
    }

    #[test]
    fn converts_verify_error() {
        let e = VerifyError {
            function: "k".into(),
            message: "bad".into(),
        };
        let d: Diagnostic = e.into();
        assert_eq!(d.code, "verify-error");
        assert_eq!(d.location.as_deref(), Some("@k"));
    }
}
