//! # mitra-codegen — executable code generation from synthesized DSL programs
//!
//! The paper's architecture (Figure 14) pairs a language-agnostic synthesis core with
//! domain-specific plug-ins whose job is to translate the synthesized DSL program into
//! an executable artifact for the input format:
//!
//! * **Mitra-xml** emits XSLT stylesheets — implemented in [`xslt`];
//! * **Mitra-json** emits JavaScript programs — implemented in [`js`].
//!
//! The emitted source is text; this crate does not ship an XSLT or JavaScript runtime.
//! The benchmark harness measures the `LOC` statistic of Table 1 from these artifacts
//! and the integration tests check their structure (one loop per column extractor,
//! predicate guards pushed to the shallowest loop that binds their columns, correct
//! escaping).  Guard placement is derived from the static query plan in `guards`.

mod guards;
pub mod js;
pub mod loc;
pub mod xslt;

pub use js::generate_javascript;
pub use loc::lines_of_code;
pub use xslt::generate_xslt;

/// Which plug-in produced an artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The XSLT (XML) back-end.
    Xslt,
    /// The JavaScript (JSON) back-end.
    JavaScript,
}

/// A generated program artifact.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// Which back-end produced it.
    pub backend: Backend,
    /// The source text.
    pub source: String,
}

impl Artifact {
    /// Lines of code of the artifact, excluding blank lines and comments, matching the
    /// way the paper reports the `LOC` column of Table 1 (built-in helpers are not
    /// counted).
    pub fn loc(&self) -> usize {
        lines_of_code(&self.source)
    }
}

/// Generates an artifact for a program using the requested backend.
pub fn generate(program: &mitra_dsl::Program, backend: Backend) -> Artifact {
    let source = match backend {
        Backend::Xslt => generate_xslt(program),
        Backend::JavaScript => generate_javascript(program),
    };
    Artifact { backend, source }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitra_dsl::ast::{ColumnExtractor, Predicate, TableExtractor};
    use mitra_dsl::Program;

    fn tiny_program() -> Program {
        let pi = ColumnExtractor::children(ColumnExtractor::Input, "item");
        Program::new(TableExtractor::new(vec![pi]), Predicate::True)
    }

    #[test]
    fn generate_dispatches_to_backends() {
        let p = tiny_program();
        let xslt = generate(&p, Backend::Xslt);
        let js = generate(&p, Backend::JavaScript);
        assert_eq!(xslt.backend, Backend::Xslt);
        assert_eq!(js.backend, Backend::JavaScript);
        assert!(xslt.source.contains("<xsl:stylesheet"));
        assert!(js.source.contains("function"));
    }

    #[test]
    fn loc_is_positive_for_any_program() {
        let p = tiny_program();
        assert!(generate(&p, Backend::Xslt).loc() > 0);
        assert!(generate(&p, Backend::JavaScript).loc() > 0);
    }
}
