//! Integration test for experiment E4 (DESIGN.md): the Section 2 motivating example,
//! exercised end to end across the hdt, dsl, synth and codegen crates through the
//! public `mitra` facade.

use mitra::codegen::Backend;
use mitra::datagen::social;
use mitra::synth::exec::execute;
use mitra::synth::synthesize::{learn_transformation, SynthConfig};
use mitra::DocFormat;

#[test]
fn motivating_example_synthesizes_and_generalizes() {
    let example = social::training_example();
    let synthesis = learn_transformation(std::slice::from_ref(&example), &SynthConfig::default())
        .expect("synthesis");

    // The program reproduces the training example exactly.
    let out = execute(&example.tree, &synthesis.program);
    assert!(out.same_bag(&example.output));

    // ... and generalizes to larger documents it has never seen.
    for (persons, friends) in [(6, 1), (10, 2), (25, 3)] {
        let doc = social::social_network(persons, friends);
        let out = execute(&doc, &synthesis.program);
        let expected = social::expected_table(persons, friends);
        assert!(
            out.same_bag(&expected),
            "program failed to generalize to ({persons}, {friends})"
        );
    }

    // The program has the Figure 3 shape: three columns, at least two join atoms.
    assert_eq!(synthesis.program.arity(), 3);
    assert!(synthesis.cost.atoms >= 2);
}

#[test]
fn motivating_example_emits_both_backends() {
    let example = social::training_example();
    let synthesis = learn_transformation(&[example], &SynthConfig::default()).expect("synthesis");
    let mitra = mitra::Mitra::new();
    let xslt = mitra.emit(&synthesis.program, Backend::Xslt);
    let js = mitra.emit(&synthesis.program, Backend::JavaScript);
    assert!(xslt.source.contains("xsl:for-each"));
    assert!(js.source.contains("for (const c0"));
    assert!(xslt.loc() > 0 && js.loc() > 0);
}

#[test]
fn motivating_example_through_xml_plugin() {
    // Parse the Figure 2a-style attribute XML, then go through the full
    // text -> HDT -> synthesis -> execution pipeline via the facade.  The
    // attribute-style rendering matches the paper's figure: ids, names, fids and years
    // are attributes, so the Section 3 mapping produces the same HDT shape as the
    // programmatic generator and the Figure 3 program (node extractors of depth three)
    // is learnable with the default configuration.
    let xml = social::social_network_xml_attrs(3, 1);
    let expected = social::expected_table(3, 1);
    let csv = expected.to_csv();
    let mitra = mitra::Mitra::new();
    let synthesis = mitra
        .synthesize_from(DocFormat::Xml, &[(xml.as_str(), csv.as_str())])
        .expect("synthesis from XML text");

    // The program reproduces the training example through the XML plug-in...
    let out = mitra
        .run_on(DocFormat::Xml, &synthesis.program, &xml)
        .expect("run on training doc");
    assert!(out.same_bag(&expected));

    // ... and generalizes to a much larger document, including more friends per person.
    let big_xml = social::social_network_xml_attrs(10, 2);
    let out = mitra
        .run_on(DocFormat::Xml, &synthesis.program, &big_xml)
        .expect("run");
    assert!(out.same_bag(&social::expected_table(10, 2)));
}
