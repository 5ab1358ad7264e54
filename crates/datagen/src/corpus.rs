//! The 98-task benchmark corpus (substitute for the StackOverflow benchmarks of
//! Table 1).
//!
//! Tasks are generated deterministically (a fixed seed per task id) from a set of
//! scenario families that mirror the transformation patterns in the paper's
//! benchmarks: flat projections, positional extraction from arrays, parent/child joins
//! across nesting levels, value joins through reference fields, constant filters, deep
//! descendant extraction, and wide tables.  Category counts match Table 1:
//!
//! | category | XML | JSON |
//! |----------|-----|------|
//! | ≤ 2 cols | 17  | 11   |
//! | 3 cols   | 12  | 11   |
//! | 4 cols   | 12  | 11   |
//! | ≥ 5 cols | 10  | 14   |
//!
//! A handful of tasks (6 overall, mirroring the paper's 6 failures) are *not
//! expressible* in the DSL — their output requires string concatenation of two input
//! fields — and are marked `expressible = false`.

use mitra_dsl::{Table, Value};
use mitra_hdt::{Hdt, NodeId};
use mitra_synth::synthesize::Example;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Whether the task's source document is XML-shaped or JSON-shaped.
///
/// Both are represented as HDTs; the flag records which plug-in the task exercises and
/// controls how the document text is rendered by [`Task::document_text`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DocFormat {
    /// XML document (attributes and text content become nested leaves).
    Xml,
    /// JSON document (arrays become repeated tags with increasing `pos`).
    Json,
}

/// Output-column-count category used by Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Category {
    /// At most two output columns.
    AtMostTwo,
    /// Exactly three output columns.
    Three,
    /// Exactly four output columns.
    Four,
    /// Five or more output columns.
    FivePlus,
}

impl Category {
    /// Category for a column count.
    pub fn of(cols: usize) -> Category {
        match cols {
            0..=2 => Category::AtMostTwo,
            3 => Category::Three,
            4 => Category::Four,
            _ => Category::FivePlus,
        }
    }

    /// Display label matching the paper's table.
    pub fn label(self) -> &'static str {
        match self {
            Category::AtMostTwo => "<=2",
            Category::Three => "3",
            Category::Four => "4",
            Category::FivePlus => ">=5",
        }
    }
}

/// One benchmark task: a small input–output example plus metadata.
#[derive(Debug, Clone)]
pub struct Task {
    /// Stable identifier (0-based).
    pub id: usize,
    /// Human-readable scenario name.
    pub name: String,
    /// Source document flavour.
    pub format: DocFormat,
    /// Column-count category.
    pub category: Category,
    /// The input–output example handed to the synthesizer.
    pub example: Example,
    /// Whether the task is expressible in the DSL (the 6 inexpressible tasks mirror
    /// the paper's unsolved benchmarks).
    pub expressible: bool,
}

impl Task {
    /// Number of elements (internal nodes) in the input example — the `#Elements`
    /// statistic of Table 1.
    pub fn element_count(&self) -> usize {
        self.example.tree.element_count()
    }

    /// Number of rows in the output example — the `#Rows` statistic of Table 1.
    pub fn row_count(&self) -> usize {
        self.example.output.len()
    }

    /// Renders the input document as XML or JSON text (useful for examples and for
    /// exercising the parsers end to end).
    pub fn document_text(&self) -> String {
        match self.format {
            DocFormat::Xml => hdt_to_xml_text(&self.example.tree),
            DocFormat::Json => hdt_to_json_text(&self.example.tree),
        }
    }

    /// Generates a larger document of the same shape together with the table its
    /// scenario builds for it: the held-out truth a program synthesized from the
    /// example should reproduce.  `scale` multiplies the number of top-level records.
    pub fn scaled_example(&self, scale: usize) -> Example {
        // Re-generate using the same scenario with a larger size: the scenario id is
        // recoverable from the task id.
        // Task ids are minted by `generate_corpus` enumeration, so the lookup
        // cannot miss; fall back to the unscaled example rather than panic on a
        // hand-built task with a foreign id.
        match corpus_specs().into_iter().nth(self.id) {
            Some(spec) => {
                let (tree, output) = build_scenario(&spec, spec.size * scale.max(1));
                Example::new(tree, output)
            }
            None => self.example.clone(),
        }
    }
}

/// Generates the full 98-task corpus.
pub fn generate_corpus() -> Vec<Task> {
    corpus_specs()
        .into_iter()
        .enumerate()
        .map(|(id, spec)| {
            let (tree, output) = build_scenario(&spec, spec.size);
            Task {
                id,
                name: format!("{}-{}col-{}", spec.scenario.name(), spec.columns, id),
                format: spec.format,
                category: Category::of(spec.columns),
                example: Example::new(tree, output),
                expressible: spec.scenario != Scenario::Concat,
            }
        })
        .collect()
}

/// The scenario families used to build tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scenario {
    /// Flat record projection: one row per record, one column per field.
    FlatProjection,
    /// Parent/child join: records nested under groups; columns from both levels.
    ParentChildJoin,
    /// Constant filter: keep only records whose numeric field is below a threshold.
    ConstantFilter,
    /// Positional extraction: each record holds an array; take the first two entries.
    PositionalPick,
    /// Value join: records reference other records by id (like the motivating example).
    ValueJoin,
    /// Deep descendants: values at mixed depths extracted via descendants.
    DeepDescendants,
    /// Inexpressible: output column is the concatenation of two input fields.
    Concat,
}

impl Scenario {
    fn name(self) -> &'static str {
        match self {
            Scenario::FlatProjection => "flat",
            Scenario::ParentChildJoin => "nested-join",
            Scenario::ConstantFilter => "filter",
            Scenario::PositionalPick => "positional",
            Scenario::ValueJoin => "value-join",
            Scenario::DeepDescendants => "descendants",
            Scenario::Concat => "concat",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct TaskSpec {
    scenario: Scenario,
    format: DocFormat,
    columns: usize,
    size: usize,
    seed: u64,
}

/// The fixed list of 98 task specifications (51 XML + 47 JSON), with per-category
/// counts matching Table 1.
fn corpus_specs() -> Vec<TaskSpec> {
    use DocFormat::{Json, Xml};
    use Scenario::*;
    let mut specs = Vec::with_capacity(98);
    let mut seed = 0u64;
    let mut push = |scenario, format, columns, size, specs: &mut Vec<TaskSpec>| {
        seed += 1;
        specs.push(TaskSpec {
            scenario,
            format,
            columns,
            size,
            seed,
        });
    };

    // --- XML, <=2 columns: 17 tasks (one inexpressible) ---
    for i in 0..6 {
        push(FlatProjection, Xml, 2, 3 + i, &mut specs);
    }
    for i in 0..4 {
        push(ConstantFilter, Xml, 2, 4 + i, &mut specs);
    }
    for i in 0..3 {
        push(ParentChildJoin, Xml, 2, 2 + i, &mut specs);
    }
    for i in 0..3 {
        push(DeepDescendants, Xml, 2, 3 + i, &mut specs);
    }
    push(Concat, Xml, 2, 3, &mut specs);

    // --- XML, 3 columns: 12 tasks ---
    for i in 0..4 {
        push(FlatProjection, Xml, 3, 3 + i, &mut specs);
    }
    for i in 0..3 {
        push(ParentChildJoin, Xml, 3, 2 + i, &mut specs);
    }
    for i in 0..3 {
        push(ValueJoin, Xml, 3, 3 + i, &mut specs);
    }
    for i in 0..2 {
        push(ConstantFilter, Xml, 3, 4 + i, &mut specs);
    }

    // --- XML, 4 columns: 12 tasks (one inexpressible) ---
    for i in 0..4 {
        push(FlatProjection, Xml, 4, 3 + i, &mut specs);
    }
    for i in 0..3 {
        push(ParentChildJoin, Xml, 4, 2 + i, &mut specs);
    }
    for i in 0..2 {
        push(ConstantFilter, Xml, 4, 4 + i, &mut specs);
    }
    for i in 0..2 {
        push(PositionalPick, Xml, 4, 3 + i, &mut specs);
    }
    push(Concat, Xml, 4, 3, &mut specs);

    // --- XML, >=5 columns: 10 tasks (one inexpressible) ---
    for i in 0..5 {
        push(FlatProjection, Xml, 5, 3 + (i % 3), &mut specs);
    }
    for i in 0..2 {
        push(FlatProjection, Xml, 6, 3 + i, &mut specs);
    }
    for i in 0..2 {
        push(ParentChildJoin, Xml, 5, 2 + i, &mut specs);
    }
    push(Concat, Xml, 5, 3, &mut specs);

    // --- JSON, <=2 columns: 11 tasks (one inexpressible) ---
    for i in 0..4 {
        push(FlatProjection, Json, 2, 3 + i, &mut specs);
    }
    for i in 0..3 {
        push(PositionalPick, Json, 2, 3 + i, &mut specs);
    }
    for i in 0..2 {
        push(ConstantFilter, Json, 2, 4 + i, &mut specs);
    }
    push(DeepDescendants, Json, 2, 3, &mut specs);
    push(Concat, Json, 2, 3, &mut specs);

    // --- JSON, 3 columns: 11 tasks ---
    for i in 0..4 {
        push(FlatProjection, Json, 3, 3 + i, &mut specs);
    }
    for i in 0..3 {
        push(ParentChildJoin, Json, 3, 2 + i, &mut specs);
    }
    for i in 0..2 {
        push(ValueJoin, Json, 3, 3 + i, &mut specs);
    }
    for i in 0..2 {
        push(PositionalPick, Json, 3, 3 + i, &mut specs);
    }

    // --- JSON, 4 columns: 11 tasks (one inexpressible) ---
    for i in 0..4 {
        push(FlatProjection, Json, 4, 3 + i, &mut specs);
    }
    for i in 0..3 {
        push(ParentChildJoin, Json, 4, 2 + i, &mut specs);
    }
    for i in 0..2 {
        push(ConstantFilter, Json, 4, 4 + i, &mut specs);
    }
    push(PositionalPick, Json, 4, 3, &mut specs);
    push(Concat, Json, 4, 3, &mut specs);

    // --- JSON, >=5 columns: 14 tasks (one inexpressible) ---
    for i in 0..6 {
        push(FlatProjection, Json, 5, 3 + (i % 3), &mut specs);
    }
    for i in 0..3 {
        push(FlatProjection, Json, 6, 3 + i, &mut specs);
    }
    for i in 0..2 {
        push(ParentChildJoin, Json, 5, 2 + i, &mut specs);
    }
    for i in 0..2 {
        push(ConstantFilter, Json, 5, 4 + i, &mut specs);
    }
    push(Concat, Json, 5, 3, &mut specs);

    assert_eq!(specs.len(), 98, "corpus must contain exactly 98 tasks");
    specs
}

// --- Scenario builders -----------------------------------------------------------

const FIELD_NAMES: [&str; 8] = [
    "name", "city", "price", "status", "email", "country", "team", "grade",
];

fn field_value(rng: &mut StdRng, field: usize, record: usize) -> String {
    match field {
        0 => format!("item{record}"),
        1 => ["Austin", "Berlin", "Tokyo", "Lima", "Oslo"][rng.gen_range(0..5)].to_string(),
        2 => format!("{}", 10 + record * 7 + rng.gen_range(0..5)),
        3 => ["active", "closed", "pending"][record % 3].to_string(),
        4 => format!("user{record}@example.org"),
        5 => ["US", "DE", "JP", "PE", "NO"][rng.gen_range(0..5)].to_string(),
        6 => format!("team{}", rng.gen_range(1..4)),
        _ => format!("g{}", rng.gen_range(1..6)),
    }
}

fn build_scenario(spec: &TaskSpec, size: usize) -> (Hdt, Table) {
    let mut rng = StdRng::seed_from_u64(spec.seed * 7919 + 17);
    match spec.scenario {
        Scenario::FlatProjection => flat_projection(&mut rng, spec.columns, size),
        Scenario::ParentChildJoin => parent_child_join(&mut rng, spec.columns, size),
        Scenario::ConstantFilter => constant_filter(&mut rng, spec.columns, size),
        Scenario::PositionalPick => positional_pick(&mut rng, spec.columns, size),
        Scenario::ValueJoin => value_join(spec.columns, size),
        Scenario::DeepDescendants => deep_descendants(spec.columns, size),
        Scenario::Concat => concat_task(&mut rng, spec.columns, size),
    }
}

/// `root/record*/{field_i}` → one row per record with its fields.
fn flat_projection(rng: &mut StdRng, columns: usize, size: usize) -> (Hdt, Table) {
    let mut tree = Hdt::with_root("root");
    let root = tree.root();
    let cols: Vec<String> = (0..columns)
        .map(|c| FIELD_NAMES[c % 8].to_string())
        .collect();
    let mut out = Table::new(cols.clone());
    for r in 0..size {
        let rec = tree.add_child(root, "record", None);
        let mut row = Vec::with_capacity(columns);
        for (c, col) in cols.iter().enumerate() {
            // Make values unique per (record, column) by suffixing the record index for
            // textual fields so the example is unambiguous.
            let mut v = field_value(rng, c, r);
            if c != 0 && c != 2 {
                v = format!("{v}-{r}");
            }
            tree.add_child(rec, col.clone(), Some(v.clone()));
            row.push(Value::from_data(&v));
        }
        out.push(row);
    }
    (tree, out)
}

/// `root/group*/name + group/item*/fields` → (group_name, item fields...) rows.
fn parent_child_join(rng: &mut StdRng, columns: usize, groups: usize) -> (Hdt, Table) {
    let mut tree = Hdt::with_root("root");
    let root = tree.root();
    let item_cols = columns - 1;
    let mut names = vec!["group".to_string()];
    names.extend((0..item_cols).map(|c| FIELD_NAMES[c % 8].to_string()));
    let mut out = Table::new(names.clone());
    for g in 0..groups {
        let group = tree.add_child(root, "group", None);
        let gname = format!("group-{g}");
        tree.add_child(group, "label", Some(gname.clone()));
        for i in 0..2 {
            let item = tree.add_child(group, "item", None);
            let mut row = vec![Value::from_data(&gname)];
            for c in 0..item_cols {
                let v = format!("{}-{g}-{i}", field_value(rng, c, g * 2 + i));
                tree.add_child(item, FIELD_NAMES[c % 8], Some(v.clone()));
                row.push(Value::from_data(&v));
            }
            out.push(row);
        }
    }
    (tree, out)
}

/// Records with a numeric `score` field; keep only those with score below 50.
fn constant_filter(rng: &mut StdRng, columns: usize, size: usize) -> (Hdt, Table) {
    let mut tree = Hdt::with_root("root");
    let root = tree.root();
    let data_cols = columns - 1;
    let mut names: Vec<String> = (0..data_cols)
        .map(|c| FIELD_NAMES[c % 8].to_string())
        .collect();
    names.push("score".to_string());
    let mut out = Table::new(names);
    for r in 0..size {
        let rec = tree.add_child(root, "record", None);
        // Alternate clearly below/above the threshold so both sides are represented.
        let score = if r % 2 == 0 { 10 + r } else { 80 + r };
        let mut row = Vec::with_capacity(columns);
        for c in 0..data_cols {
            let v = format!("{}-{r}", field_value(rng, c, r));
            tree.add_child(rec, FIELD_NAMES[c % 8], Some(v.clone()));
            row.push(Value::from_data(&v));
        }
        tree.add_child(rec, "score", Some(score.to_string()));
        row.push(Value::int(score as i64));
        if score < 50 {
            out.push(row);
        }
    }
    (tree, out)
}

/// Each record holds a `phone` array; output the record name plus the first (and for
/// wider tables the second) phone, distinguishing entries by position.
fn positional_pick(rng: &mut StdRng, columns: usize, size: usize) -> (Hdt, Table) {
    let mut tree = Hdt::with_root("root");
    let root = tree.root();
    let extra = columns.saturating_sub(2).min(2); // how many extra scalar fields
    let picks = columns - 1 - extra; // how many positional picks (1 or 2)
    let mut names = vec!["name".to_string()];
    for c in 0..extra {
        names.push(FIELD_NAMES[(c + 1) % 8].to_string());
    }
    for p in 0..picks {
        names.push(format!("phone{p}"));
    }
    let mut out = Table::new(names);
    for r in 0..size {
        let rec = tree.add_child(root, "contact", None);
        let name = format!("person{r}");
        tree.add_child(rec, "name", Some(name.clone()));
        let mut row = vec![Value::from_data(&name)];
        for c in 0..extra {
            let v = format!("{}-{r}", field_value(rng, c + 1, r));
            tree.add_child(rec, FIELD_NAMES[(c + 1) % 8], Some(v.clone()));
            row.push(Value::from_data(&v));
        }
        let mut phones = Vec::new();
        for p in 0..3 {
            let v = format!("555-{r}{p}{}", rng.gen_range(10..99));
            tree.add_child(rec, "phone", Some(v.clone()));
            phones.push(v);
        }
        for phone in phones.iter().take(picks) {
            row.push(Value::from_data(phone));
        }
        out.push(row);
    }
    (tree, out)
}

/// The motivating-example pattern: persons referencing each other by id.
fn value_join(columns: usize, persons: usize) -> (Hdt, Table) {
    let tree = mitra_hdt::generate::social_network(persons.max(3), 1);
    let rows = mitra_hdt::generate::social_network_rows(persons.max(3), 1);
    let mut out = Table::new(vec![
        "person".to_string(),
        "friend".to_string(),
        "years".to_string(),
    ]);
    for r in rows {
        out.push(r.iter().map(|s| Value::from_data(s)).collect());
    }
    // Only the 3-column variant is generated; `columns` is kept for the spec's category.
    debug_assert_eq!(columns, 3);
    (tree, out)
}

/// Values at two different depths, both reachable with `descendants`.
fn deep_descendants(columns: usize, size: usize) -> (Hdt, Table) {
    let mut tree = Hdt::with_root("root");
    let root = tree.root();
    let mut out =
        Table::new(vec!["sku".to_string(), "warehouse".to_string()][..columns.min(2)].to_vec());
    for r in 0..size {
        let section = tree.add_child(root, "section", None);
        let shelf = tree.add_child(section, "shelf", None);
        let product = tree.add_child(shelf, "product", None);
        let sku = format!("sku-{r}");
        tree.add_child(product, "sku", Some(sku.clone()));
        let wh = tree.add_child(section, "warehouse", None);
        let wname = format!("wh-{r}");
        tree.add_child(wh, "code", Some(wname.clone()));
        let mut row = vec![Value::from_data(&sku)];
        if columns >= 2 {
            row.push(Value::from_data(&wname));
        }
        out.push(row);
    }
    (tree, out)
}

/// Inexpressible task: the output's last column concatenates two input fields with a
/// separator that never occurs in the tree, so no DSL program can produce it.
fn concat_task(rng: &mut StdRng, columns: usize, size: usize) -> (Hdt, Table) {
    let (mut tree, mut base) = flat_projection(rng, columns.saturating_sub(1).max(1), size);
    let _ = &mut tree;
    let mut names = base.columns.clone();
    names.push("full".to_string());
    let mut out = Table::new(names);
    for row in &base.rows {
        let mut r = row.clone();
        let concat = format!("{}|{}", row[0].render(), row[row.len() - 1].render());
        r.push(Value::Str(concat));
        out.push(r);
    }
    base.rows.clear();
    (tree, out)
}

// --- Document text rendering ------------------------------------------------------

/// Renders an HDT as XML text: each internal node as an element around its
/// children, and each data leaf as an element whose text is its data.  It is not
/// the XML plug-in's inverse: `xml_to_hdt` maps an element's text one level
/// deeper, to a `text` leaf under the element, so a data leaf `<year>1999</year>`
/// comes back as an internal `year` node with a `text` child.
pub fn hdt_to_xml_text(tree: &Hdt) -> String {
    fn write_node(tree: &Hdt, node: NodeId, indent: usize, out: &mut String) {
        let pad = "  ".repeat(indent);
        let tag = tree.tag_name(node);
        if tree.is_leaf(node) {
            let data = mitra_hdt::xml::escape(tree.data(node).unwrap_or(""));
            out.push_str(&format!("{pad}<{tag}>{data}</{tag}>\n"));
        } else {
            out.push_str(&format!("{pad}<{tag}>\n"));
            for &c in tree.children(node) {
                write_node(tree, c, indent + 1, out);
            }
            out.push_str(&format!("{pad}</{tag}>\n"));
        }
    }
    let mut out = String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    write_node(tree, tree.root(), 0, &mut out);
    out
}

/// Renders an HDT as JSON text: repeated child tags become arrays, leaves become
/// scalar values.
pub fn hdt_to_json_text(tree: &Hdt) -> String {
    fn node_to_json(tree: &Hdt, node: NodeId) -> mitra_hdt::JsonValue {
        use mitra_hdt::JsonValue;
        if tree.is_leaf(node) {
            let raw = tree.data(node).unwrap_or("");
            return match Value::from_data(raw) {
                Value::Int(i) => JsonValue::Number(i as f64),
                Value::Float(f) => JsonValue::Number(f),
                Value::Bool(b) => JsonValue::Bool(b),
                Value::Null => JsonValue::Null,
                Value::Str(s) => JsonValue::String(s),
            };
        }
        // Group children by tag, preserving order of first appearance.
        let mut fields: Vec<(String, Vec<NodeId>)> = Vec::new();
        for &c in tree.children(node) {
            let tag = tree.tag_name(c).to_string();
            match fields.iter_mut().find(|(t, _)| *t == tag) {
                Some((_, v)) => v.push(c),
                None => fields.push((tag, vec![c])),
            }
        }
        JsonValue::Object(
            fields
                .into_iter()
                .map(|(tag, nodes)| {
                    if nodes.len() == 1 {
                        (tag, node_to_json(tree, nodes[0]))
                    } else {
                        (
                            tag,
                            JsonValue::Array(
                                nodes.iter().map(|n| node_to_json(tree, *n)).collect(),
                            ),
                        )
                    }
                })
                .collect(),
        )
    }
    node_to_json(tree, tree.root()).to_string_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mitra_dsl::eval::eval_program;
    use mitra_synth::synthesize::{learn_transformation, SynthConfig};

    #[test]
    fn corpus_has_98_tasks_with_paper_counts() {
        let tasks = generate_corpus();
        assert_eq!(tasks.len(), 98);
        let xml = tasks.iter().filter(|t| t.format == DocFormat::Xml).count();
        let json = tasks.iter().filter(|t| t.format == DocFormat::Json).count();
        assert_eq!(xml, 51);
        assert_eq!(json, 47);
        let count = |f, c| {
            tasks
                .iter()
                .filter(|t| t.format == f && t.category == c)
                .count()
        };
        assert_eq!(count(DocFormat::Xml, Category::AtMostTwo), 17);
        assert_eq!(count(DocFormat::Xml, Category::Three), 12);
        assert_eq!(count(DocFormat::Xml, Category::Four), 12);
        assert_eq!(count(DocFormat::Xml, Category::FivePlus), 10);
        assert_eq!(count(DocFormat::Json, Category::AtMostTwo), 11);
        assert_eq!(count(DocFormat::Json, Category::Three), 11);
        assert_eq!(count(DocFormat::Json, Category::Four), 11);
        assert_eq!(count(DocFormat::Json, Category::FivePlus), 14);
        assert_eq!(tasks.iter().filter(|t| !t.expressible).count(), 6);
    }

    #[test]
    fn corpus_is_deterministic() {
        let a = generate_corpus();
        let b = generate_corpus();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert!(x.example.output.same_bag(&y.example.output));
        }
    }

    #[test]
    fn examples_are_well_formed() {
        for task in generate_corpus() {
            task.example.tree.validate().expect("tree validates");
            assert!(task.row_count() > 0, "task {} has empty output", task.name);
            assert_eq!(
                task.category,
                Category::of(task.example.output.arity()),
                "category mismatch for {}",
                task.name
            );
        }
    }

    #[test]
    fn document_text_roundtrips_through_parsers() {
        let tasks = generate_corpus();
        // Check a sample from each format to keep the test fast.
        for task in tasks.iter().filter(|t| t.id % 17 == 0) {
            let text = task.document_text();
            match task.format {
                DocFormat::Xml => {
                    mitra_hdt::xml::xml_to_hdt(&text).expect("emitted XML parses");
                }
                DocFormat::Json => {
                    mitra_hdt::parse_json(&text).expect("emitted JSON parses");
                }
            }
        }
    }

    #[test]
    fn a_sample_of_expressible_tasks_synthesize() {
        // Synthesizing all 98 here would be too slow for a unit test; the bench harness
        // does the full sweep.  Check one task per scenario family instead.
        let tasks = generate_corpus();
        let mut seen = std::collections::HashSet::new();
        let config = SynthConfig::default();
        for task in &tasks {
            let family = task.name.split('-').next().unwrap().to_string();
            if !task.expressible || !seen.insert(family) {
                continue;
            }
            let result = learn_transformation(std::slice::from_ref(&task.example), &config)
                .unwrap_or_else(|e| panic!("task {} failed: {e}", task.name));
            let out = eval_program(&task.example.tree, &result.program).unwrap();
            assert!(
                out.same_bag(&task.example.output),
                "task {} mismatch",
                task.name
            );
        }
    }

    #[test]
    fn inexpressible_tasks_fail_to_synthesize() {
        let tasks = generate_corpus();
        let config = SynthConfig {
            timeout: Some(std::time::Duration::from_secs(20)),
            ..Default::default()
        };
        let concat = tasks.iter().find(|t| !t.expressible).unwrap();
        assert!(learn_transformation(std::slice::from_ref(&concat.example), &config).is_err());
    }

    #[test]
    fn scaled_documents_grow() {
        let tasks = generate_corpus();
        let t = &tasks[0];
        let small = t.scaled_example(1);
        let big = t.scaled_example(10);
        assert!(big.tree.len() > small.tree.len());
        assert!(big.output.len() > small.output.len());
    }
}
