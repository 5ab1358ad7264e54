//! Quickstart: synthesize a tree-to-table program from one small example and run it on
//! a bigger document.
//!
//! Run with: `cargo run --release --example quickstart`

use mitra::codegen::Backend;
use mitra::{DocFormat, Mitra};

fn main() {
    // 1. A small XML document and the relational table we want from it.
    let example_xml = r#"<catalog>
      <book><isbn>1</isbn><title>Dune</title><author>Herbert</author></book>
      <book><isbn>2</isbn><title>Foundation</title><author>Asimov</author></book>
    </catalog>"#;
    let example_output = "isbn,title,author\n1,Dune,Herbert\n2,Foundation,Asimov\n";

    // 2. Synthesize the transformation program.
    let mitra = Mitra::new();
    let synthesis = mitra
        .synthesize_from(DocFormat::Xml, &[(example_xml, example_output)])
        .expect("synthesis should succeed");
    println!(
        "Synthesized in {:?} (cost: {:?})",
        synthesis.elapsed, synthesis.cost
    );
    println!(
        "{}",
        mitra::dsl::pretty::program_summary(&synthesis.program)
    );

    // 3. Apply the program to a larger document that the synthesizer never saw.
    let full_xml = r#"<catalog>
      <book><isbn>1</isbn><title>Dune</title><author>Herbert</author></book>
      <book><isbn>2</isbn><title>Foundation</title><author>Asimov</author></book>
      <book><isbn>3</isbn><title>Solaris</title><author>Lem</author></book>
      <book><isbn>4</isbn><title>Neuromancer</title><author>Gibson</author></book>
    </catalog>"#;
    let table = mitra
        .run_on(DocFormat::Xml, &synthesis.program, full_xml)
        .expect("execution should succeed");
    println!(
        "Resulting table ({} rows):\n{}",
        table.len(),
        table.to_csv()
    );
    assert_eq!(table.len(), 4, "one row per book");

    // 4. Emit executable XSLT for use outside this library.
    let xslt = mitra.emit(&synthesis.program, Backend::Xslt);
    println!(
        "Generated XSLT ({} lines of code):\n{}",
        xslt.loc(),
        xslt.source
    );
}
