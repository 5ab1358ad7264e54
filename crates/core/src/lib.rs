//! # mitra-core — the high-level Mitra engine
//!
//! This crate is the public face of the reproduction: it ties together the plug-ins
//! (XML/JSON/HTML → HDT, chosen by a [`DocFormat`]), the synthesis engine, the
//! optimized execution engine, the code generators and the full-database migration
//! machinery behind one small API, mirroring the architecture of Figure 14 in the
//! paper (a language-agnostic core plus domain-specific plug-ins).
//!
//! ```
//! use mitra_core::{DocFormat, Mitra};
//!
//! let xml = r#"<root>
//!   <person><name>Ada</name><role>engineer</role></person>
//!   <person><name>Grace</name><role>admiral</role></person>
//! </root>"#;
//! let output = "name,role\nAda,engineer\nGrace,admiral\n";
//!
//! let mitra = Mitra::new();
//! let synthesized = mitra.synthesize_from(DocFormat::Xml, &[(xml, output)]).unwrap();
//! let table = mitra.run_on(DocFormat::Xml, &synthesized.program, xml).unwrap();
//! assert_eq!(table.len(), 2);
//! ```

use mitra_codegen::{generate, Artifact, Backend};
use mitra_dsl::table::read_csv_record;
use mitra_dsl::{Program, Table, Value};
use mitra_hdt::Hdt;
use mitra_synth::exec::execute;
use mitra_synth::synthesize::{learn_transformation, Example, SynthConfig, Synthesis};

pub mod error;

pub use error::MitraError;
pub use mitra_codegen as codegen;
pub use mitra_dsl as dsl;
pub use mitra_hdt as hdt;
pub use mitra_hdt::intern;
pub use mitra_hdt::{DocFormat, Interner, Symbol, TagId};
pub use mitra_migrate as migrate;
pub use mitra_synth as synth;
pub use mitra_trace as trace;

/// The high-level Mitra engine: a synthesis configuration plus entry points that
/// read documents through any plug-in ([`DocFormat`]).
#[derive(Debug, Clone, Default)]
pub struct Mitra {
    /// The synthesis configuration used by every synthesis call.
    pub config: SynthConfig,
}

impl Mitra {
    /// Creates an engine with the default configuration.
    pub fn new() -> Self {
        Mitra {
            config: SynthConfig::default(),
        }
    }

    /// Creates an engine with a custom configuration.
    pub fn with_config(config: SynthConfig) -> Self {
        Mitra { config }
    }

    /// Synthesizes a program from (document, output CSV) example pairs, each
    /// document parsed by `format`'s plug-in.
    ///
    /// The CSV's first line is treated as the header (column names); remaining lines
    /// are the expected rows.
    pub fn synthesize_from(
        &self,
        format: DocFormat,
        examples: &[(&str, &str)],
    ) -> Result<Synthesis, MitraError> {
        let examples = examples
            .iter()
            .map(|(doc, out)| Ok(Example::new(format.parse(doc)?, parse_csv_table(out)?)))
            .collect::<Result<Vec<_>, MitraError>>()?;
        Ok(learn_transformation(&examples, &self.config)?)
    }

    /// Synthesizes a program from already-constructed examples (any plug-in).
    pub fn synthesize(&self, examples: &[Example]) -> Result<Synthesis, MitraError> {
        Ok(learn_transformation(examples, &self.config)?)
    }

    /// Runs a program over a document, parsed by `format`'s plug-in, using the
    /// optimized execution engine.
    pub fn run_on(
        &self,
        format: DocFormat,
        program: &Program,
        document: &str,
    ) -> Result<Table, MitraError> {
        let tree = format.parse(document)?;
        Ok(execute(&tree, program))
    }

    /// Runs a program over an already-parsed HDT.
    pub fn run(&self, program: &Program, tree: &Hdt) -> Table {
        execute(tree, program)
    }

    /// Emits executable code for a synthesized program (XSLT for the XML plug-in,
    /// JavaScript for the JSON plug-in).
    pub fn emit(&self, program: &Program, backend: Backend) -> Artifact {
        generate(program, backend)
    }

    /// Parses a DSL program from its textual (paper-syntax) form.
    pub fn parse_program(&self, text: &str) -> Result<Program, MitraError> {
        Ok(mitra_dsl::parse::parse_program(text)?)
    }
}

/// Parses CSV text (the [`mitra_dsl::table`] codec: comma-separated, double-quote
/// escaping, quoted cells may span lines) into a table.  The first record is the
/// header; blank lines are skipped.
pub fn parse_csv_table(text: &str) -> Result<Table, MitraError> {
    let mut records = Vec::new();
    let mut pos = 0;
    while pos < text.len() {
        let record = read_csv_record(text, &mut pos)
            .ok_or_else(|| MitraError::BadOutputExample("unterminated quoted CSV cell".into()))?;
        if record.len() > 1 || !record[0].is_empty() {
            records.push(record);
        }
    }
    let mut records = records.into_iter();
    let Some(columns) = records.next() else {
        return Err(MitraError::BadOutputExample("empty output example".into()));
    };
    let mut table = Table::new(columns);
    for (i, cells) in records.enumerate() {
        if cells.len() != table.arity() {
            return Err(MitraError::BadOutputExample(format!(
                "row {} has {} cells but the header has {}",
                i + 1,
                cells.len(),
                table.arity()
            )));
        }
        table.push(cells.iter().map(|c| Value::from_data(c)).collect());
    }
    if table.is_empty() {
        return Err(MitraError::BadOutputExample(
            "output example has a header but no rows".into(),
        ));
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    const XML: &str = r#"<root>
      <person><name>Ada</name><role>engineer</role></person>
      <person><name>Grace</name><role>admiral</role></person>
      <person><name>Edsger</name><role>professor</role></person>
    </root>"#;

    const JSON: &str = r#"{"person": [
      {"name": "Ada", "role": "engineer"},
      {"name": "Grace", "role": "admiral"},
      {"name": "Edsger", "role": "professor"}
    ]}"#;

    const OUT: &str = "name,role\nAda,engineer\nGrace,admiral\nEdsger,professor\n";

    #[test]
    fn csv_parsing_handles_quotes_and_blank_lines() {
        let t = parse_csv_table("a,b\n\n1,\"x,y\"\n2,\"say \"\"hi\"\"\"\n").unwrap();
        assert_eq!(t.columns, vec!["a", "b"]);
        assert_eq!(t.rows[0][1], Value::str("x,y"));
        assert_eq!(t.rows[1][1], Value::str("say \"hi\""));
        assert!(parse_csv_table("").is_err());
        assert!(parse_csv_table("a,b\n1\n").is_err());
        assert!(parse_csv_table("a,b\n").is_err());
        assert!(parse_csv_table("a\n\"x\n").is_err());
        // Quoted header commas, quoted newlines and edge spaces survive.
        let t = parse_csv_table("\"a,b\",c\r\n\" x\ny \", 2 \r\n").unwrap();
        assert_eq!(t.columns, vec!["a,b", "c"]);
        assert_eq!(t.rows[0][0], Value::str(" x\ny "));
        assert_eq!(t.rows[0][1], Value::int(2));
    }

    #[test]
    fn xml_end_to_end_synthesis_and_execution() {
        let mitra = Mitra::new();
        let result = mitra
            .synthesize_from(DocFormat::Xml, &[(XML, OUT)])
            .unwrap();
        let table = mitra.run_on(DocFormat::Xml, &result.program, XML).unwrap();
        assert_eq!(table.len(), 3);
        assert_eq!(table.columns, vec!["name", "role"]);
    }

    #[test]
    fn json_end_to_end_synthesis_and_execution() {
        let mitra = Mitra::new();
        let result = mitra
            .synthesize_from(DocFormat::Json, &[(JSON, OUT)])
            .unwrap();
        let table = mitra
            .run_on(DocFormat::Json, &result.program, JSON)
            .unwrap();
        assert_eq!(table.len(), 3);
    }

    #[test]
    fn html_end_to_end_synthesis_and_execution() {
        let html = r#"<html><body><table>
          <tr><td class="name">Ada</td><td class="role">engineer</td></tr>
          <tr><td class="name">Grace</td><td class="role">admiral</td></tr>
          <tr><td class="name">Edsger</td><td class="role">professor</td></tr>
        </table></body></html>"#;
        let mitra = Mitra::new();
        let result = mitra
            .synthesize_from(DocFormat::Html, &[(html, OUT)])
            .unwrap();
        let table = mitra
            .run_on(DocFormat::Html, &result.program, html)
            .unwrap();
        assert_eq!(table.len(), 3);
        assert_eq!(table.columns, vec!["name", "role"]);
    }

    #[test]
    fn emit_produces_both_backends() {
        let mitra = Mitra::new();
        let result = mitra
            .synthesize_from(DocFormat::Xml, &[(XML, OUT)])
            .unwrap();
        assert!(mitra
            .emit(&result.program, Backend::Xslt)
            .source
            .contains("xsl:stylesheet"));
        assert!(mitra
            .emit(&result.program, Backend::JavaScript)
            .source
            .contains("function transform"));
    }

    #[test]
    fn parse_errors_are_reported() {
        let mitra = Mitra::new();
        assert!(matches!(
            mitra.synthesize_from(DocFormat::Xml, &[("<broken", OUT)]),
            Err(MitraError::Parse(_))
        ));
        assert!(matches!(
            mitra.synthesize_from(DocFormat::Xml, &[(XML, "")]),
            Err(MitraError::BadOutputExample(_))
        ));
    }

    #[test]
    fn synthesis_errors_are_reported() {
        let mitra = Mitra::new();
        let bad_out = "name,role\nNotInTheDocument,whatever\n";
        assert!(matches!(
            mitra.synthesize_from(DocFormat::Xml, &[(XML, bad_out)]),
            Err(MitraError::Synthesis(_))
        ));
    }
}
