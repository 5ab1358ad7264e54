//! HTML plug-in demo: learn a table-extraction program from a messy HTML page and apply
//! it to a larger page, mirroring the "other hierarchical formats" extensibility note
//! of Section 6 of the paper.
//!
//! Run with: `cargo run --release --example html_scrape`

use mitra::codegen::Backend;
use mitra::{DocFormat, Mitra};

fn main() {
    // 1. A small, imperfect HTML page (unclosed <li>/<th>/<td> tags, value-less
    //    attributes, accessible row headers) and the relational view we want of its
    //    product table.
    let example_html = r#"<!DOCTYPE html>
    <html><body>
      <h1>Price list</h1>
      <table id="products">
        <tr><th scope=row>Keyboard<td class="price">45
        <tr><th scope=row>Mouse<td class="price">19
      </table>
      <ul><li>shipping is extra<li>prices in EUR</ul>
    </body></html>"#;
    let example_output = "name,price\nKeyboard,45\nMouse,19\n";

    // 2. Synthesize the extraction program through the HTML plug-in.
    let mitra = Mitra::new();
    let synthesis = mitra
        .synthesize_from(DocFormat::Html, &[(example_html, example_output)])
        .expect("synthesis should succeed");
    println!(
        "Synthesized in {:?} (cost: {:?})",
        synthesis.elapsed, synthesis.cost
    );
    println!(
        "{}",
        mitra::dsl::pretty::program_summary(&synthesis.program)
    );

    // 3. Run it on a longer page the synthesizer never saw.
    let full_html = r#"<html><body>
      <table id="products">
        <tr><th scope=row>Keyboard<td class="price">45</tr>
        <tr><th scope=row>Mouse<td class="price">19</tr>
        <tr><th scope=row>Monitor<td class="price">210</tr>
        <tr><th scope=row>Webcam<td class="price">60</tr>
        <tr><th scope=row>Dock<td class="price">120</tr>
      </table>
    </body></html>"#;
    let table = mitra
        .run_on(DocFormat::Html, &synthesis.program, full_html)
        .expect("execution should succeed");
    println!(
        "Extracted table ({} rows):\n{}",
        table.len(),
        table.to_csv()
    );
    assert_eq!(table.len(), 5, "one row per product");

    // 4. The XSLT back end still applies (HTML maps to the same HDT shape as XML).
    let xslt = mitra.emit(&synthesis.program, Backend::Xslt);
    println!("Generated XSLT is {} lines of code", xslt.loc());
}
