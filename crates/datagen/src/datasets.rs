//! Schema-faithful simulators for the four real-world datasets of Table 2.
//!
//! The real DBLP/IMDB/MONDIAL/YELP dumps are multi-gigabyte external downloads; the
//! paper only ever shows the synthesizer small examples and then *executes* the
//! synthesized programs over the full datasets.  We therefore generate documents with
//! the same nesting structure and with relational target schemas matching the paper's
//! table/column counts (DBLP 9/39, IMDB 9/35, MONDIAL 25/120, YELP 7/34), scaled by an
//! element-count parameter, and build example-based migration plans exactly as a user
//! of Mitra would.
//!
//! Every dataset is described declaratively by a [`DatasetSpec`]: a list of top-level
//! entity kinds, each with scalar fields and nested child kinds.  One relational table
//! is produced per entity kind; nested kinds additionally carry a reference column to
//! their parent's first field (a natural key present in the data, which the paper
//! permits: "If the primary and foreign keys come from the input data set, we assume
//! that the dataset already obeys these constraints").

use mitra_dsl::{Table, Value};
use mitra_hdt::Hdt;
use mitra_migrate::migrate::{MigrationPlan, TableSource, TableTask};
use mitra_migrate::schema::{Column, Schema, TableSchema};
use mitra_synth::dfa::DfaLimits;
use mitra_synth::synthesize::{Example, SynthConfig};
use mitra_synth::universe::UniverseConfig;
use std::collections::HashMap;

/// One kind of nested entity (a child element/object repeated under its parent).
#[derive(Debug, Clone, Copy)]
pub struct ChildKind {
    /// Tag of the nested entity and name of its relational table.
    pub tag: &'static str,
    /// Scalar fields of the nested entity.
    pub fields: &'static [&'static str],
}

/// One kind of top-level entity.
#[derive(Debug, Clone, Copy)]
pub struct EntityKind {
    /// Tag of the entity and name of its relational table.
    pub tag: &'static str,
    /// Scalar fields; the first field acts as the natural key.
    pub fields: &'static [&'static str],
    /// Nested child kinds (each becomes its own table with a parent-reference column).
    pub children: &'static [ChildKind],
}

/// Declarative description of a dataset simulator.
#[derive(Debug, Clone, Copy)]
pub struct DatasetSpec {
    /// Dataset name as reported in Table 2.
    pub name: &'static str,
    /// Source format reported in Table 2 ("XML" or "JSON").
    pub format: &'static str,
    /// Top-level entity kinds.
    pub entities: &'static [EntityKind],
}

impl DatasetSpec {
    /// The relational target schema (one table per entity/child kind).
    pub fn schema(&self) -> Schema {
        let mut schema = Schema::new();
        for entity in self.entities {
            let cols: Vec<Column> = entity.fields.iter().map(|f| Column::text(*f)).collect();
            schema = schema.with_table(
                TableSchema::new(entity.tag, cols).with_primary_key(&[entity.fields[0]]),
            );
            for child in entity.children {
                let parent_ref = format!("{}_{}", entity.tag, entity.fields[0]);
                let mut cols: Vec<Column> = vec![Column::text(parent_ref.clone())];
                cols.extend(child.fields.iter().map(|f| Column::text(*f)));
                schema = schema.with_table(TableSchema::new(child.tag, cols).with_foreign_key(
                    &[parent_ref.as_str()],
                    entity.tag,
                    &[entity.fields[0]],
                ));
            }
        }
        schema
    }

    /// Number of relational tables.
    pub fn table_count(&self) -> usize {
        self.entities.iter().map(|e| 1 + e.children.len()).sum()
    }

    /// Generates a document with `per_entity` instances of every top-level entity kind
    /// and two instances of every nested kind per parent, together with the expected
    /// relational tables (the ground truth used for examples and for validation).
    pub fn generate(&self, per_entity: usize) -> (Hdt, HashMap<String, Table>) {
        let schema = self.schema();
        let mut tree = Hdt::with_root("root");
        let root = tree.root();
        let mut tables: HashMap<String, Table> = schema
            .tables
            .iter()
            .map(|t| (t.name.clone(), Table::new(t.column_names())))
            .collect();

        for entity in self.entities {
            for i in 0..per_entity {
                let node = tree.add_child(root, entity.tag, None);
                let mut row = Vec::with_capacity(entity.fields.len());
                for (fi, field) in entity.fields.iter().enumerate() {
                    let value = field_value(entity.tag, field, i, fi);
                    tree.add_child(node, *field, Some(value.clone()));
                    row.push(Value::from_data(&value));
                }
                let parent_key = row[0].clone();
                if let Some(table) = tables.get_mut(entity.tag) {
                    table.push(row);
                }

                for child in entity.children {
                    for j in 0..2 {
                        let cnode = tree.add_child(node, child.tag, None);
                        let mut crow = vec![parent_key.clone()];
                        for (fi, field) in child.fields.iter().enumerate() {
                            let value = field_value(child.tag, field, i * 2 + j, fi);
                            tree.add_child(cnode, *field, Some(value.clone()));
                            crow.push(Value::from_data(&value));
                        }
                        if let Some(table) = tables.get_mut(child.tag) {
                            table.push(crow);
                        }
                    }
                }
            }
        }
        (tree, tables)
    }

    /// Builds the example-based migration plan: a small sample document provides one
    /// input–output example per table, exactly as a Mitra user would construct it.
    pub fn migration_plan(&self) -> MigrationPlan {
        let (sample, expected) = self.generate(2);
        let schema = self.schema();
        let mut plan = MigrationPlan::new(schema.clone());
        plan.synth_config = dataset_synth_config();
        for table in &schema.tables {
            // `generate` populates one expected table per schema table, so a
            // miss is impossible; skip the task rather than panic if it happens.
            let Some(output) = expected.get(&table.name).cloned() else {
                continue;
            };
            let task = TableTask {
                table: table.name.clone(),
                source: TableSource::Examples(vec![Example::new(sample.clone(), output)]),
                keys: Vec::new(),
                data_columns: table.column_names(),
            };
            plan = plan.with_task(task);
        }
        plan
    }

    /// Expected row count for a document generated with `per_entity` instances.
    pub fn expected_rows(&self, per_entity: usize) -> usize {
        self.entities
            .iter()
            .map(|e| per_entity + e.children.len() * per_entity * 2)
            .sum()
    }
}

/// Synthesis configuration tuned for the dataset tables (wide tables need a tight
/// predicate universe to keep per-table synthesis in the seconds range, matching the
/// paper's 0.8–3.7 s averages).
pub fn dataset_synth_config() -> SynthConfig {
    SynthConfig {
        dfa_limits: DfaLimits {
            max_states: 2048,
            max_word_len: 4,
        },
        max_table_candidates: 24,
        universe: UniverseConfig {
            max_node_extractor_depth: 2,
            max_extractors_per_column: 12,
            max_constants: 8,
            with_ordering: false,
        },
        max_intermediate_rows: 200_000,
        timeout: Some(std::time::Duration::from_secs(120)),
        budget: mitra_synth::budget::Budget::UNLIMITED,
        threads: 0,
    }
}

/// Deterministic field value: unique per (entity kind, field, instance).
fn field_value(tag: &str, field: &str, index: usize, field_index: usize) -> String {
    if field.contains("year") {
        (1960 + (index * 7 + field_index) % 60).to_string()
    } else if field.contains("count")
        || field.contains("population")
        || field.contains("area")
        || field.contains("stars")
        || field.contains("votes")
        || field.contains("score")
        || field.contains("runtime")
        || field.contains("fans")
        || field.contains("likes")
        || field.contains("useful")
        || field.contains("season")
        || field.contains("number")
    {
        ((index + 1) * 13 + field_index * 101).to_string()
    } else {
        format!("{tag}-{field}-{index}")
    }
}

/// Renders a dataset document as JSON or XML text according to its declared format.
pub fn document_text(spec: &DatasetSpec, per_entity: usize) -> String {
    let (tree, _) = spec.generate(per_entity);
    if spec.format == "JSON" {
        crate::corpus::hdt_to_json_text(&tree)
    } else {
        crate::corpus::hdt_to_xml_text(&tree)
    }
}

// ---------------------------------------------------------------------------------
// DBLP — XML, 9 tables, 39 columns.
// ---------------------------------------------------------------------------------

/// DBLP-like bibliography dataset (XML; 9 tables, 39 columns).
pub fn dblp() -> DatasetSpec {
    DatasetSpec {
        name: "DBLP",
        format: "XML",
        entities: &[
            EntityKind {
                tag: "article",
                fields: &[
                    "article_key",
                    "article_title",
                    "article_year",
                    "journal",
                    "volume",
                    "article_pages",
                ],
                children: &[ChildKind {
                    tag: "article_author",
                    fields: &["author_name"],
                }],
            },
            EntityKind {
                tag: "inproceedings",
                fields: &[
                    "inproc_key",
                    "inproc_title",
                    "inproc_year",
                    "booktitle",
                    "inproc_pages",
                ],
                children: &[ChildKind {
                    tag: "inproceedings_author",
                    fields: &["inproc_author_name"],
                }],
            },
            EntityKind {
                tag: "proceedings",
                fields: &[
                    "proc_key",
                    "proc_title",
                    "proc_year",
                    "proc_publisher",
                    "proc_isbn",
                ],
                children: &[],
            },
            EntityKind {
                tag: "book",
                fields: &[
                    "book_key",
                    "book_title",
                    "book_year",
                    "book_publisher",
                    "book_isbn",
                ],
                children: &[],
            },
            EntityKind {
                tag: "phdthesis",
                fields: &["phd_key", "phd_title", "phd_year", "phd_school"],
                children: &[],
            },
            EntityKind {
                tag: "incollection",
                fields: &[
                    "incoll_key",
                    "incoll_title",
                    "incoll_year",
                    "incoll_booktitle",
                    "incoll_pages",
                ],
                children: &[],
            },
            EntityKind {
                tag: "www",
                fields: &["www_key", "www_title", "www_url", "www_year", "www_note"],
                children: &[],
            },
        ],
    }
}

// ---------------------------------------------------------------------------------
// IMDB — JSON, 9 tables, 35 columns.
// ---------------------------------------------------------------------------------

/// IMDB-like movie dataset (JSON; 9 tables, 35 columns).
pub fn imdb() -> DatasetSpec {
    DatasetSpec {
        name: "IMDB",
        format: "JSON",
        entities: &[
            EntityKind {
                tag: "movie",
                fields: &[
                    "movie_id",
                    "movie_title",
                    "movie_year",
                    "runtime",
                    "language",
                    "movie_country",
                ],
                children: &[
                    ChildKind {
                        tag: "movie_genre",
                        fields: &["genre"],
                    },
                    ChildKind {
                        tag: "movie_actor",
                        fields: &["actor_name", "role"],
                    },
                    ChildKind {
                        tag: "movie_director",
                        fields: &["director_name"],
                    },
                    ChildKind {
                        tag: "movie_rating",
                        fields: &["score", "votes"],
                    },
                ],
            },
            EntityKind {
                tag: "series",
                fields: &[
                    "series_id",
                    "series_title",
                    "start_year",
                    "end_year",
                    "episode_count",
                ],
                children: &[ChildKind {
                    tag: "episode",
                    fields: &["episode_title", "season", "episode_number", "air_year"],
                }],
            },
            EntityKind {
                tag: "person",
                fields: &[
                    "person_id",
                    "person_name",
                    "birth_year",
                    "death_year",
                    "profession",
                ],
                children: &[],
            },
            EntityKind {
                tag: "company",
                fields: &[
                    "company_id",
                    "company_name",
                    "company_country",
                    "founded_year",
                ],
                children: &[],
            },
        ],
    }
}

// ---------------------------------------------------------------------------------
// MONDIAL — XML, 25 tables, 120 columns.
// ---------------------------------------------------------------------------------

/// MONDIAL-like geography dataset (XML; 25 tables, 120 columns).
pub fn mondial() -> DatasetSpec {
    DatasetSpec {
        name: "MONDIAL",
        format: "XML",
        entities: &[EntityKind {
            tag: "country",
            fields: &[
                "country_code",
                "country_name",
                "capital",
                "country_area",
                "country_population",
            ],
            children: &[
                ChildKind {
                    tag: "province",
                    fields: &[
                        "province_name",
                        "province_capital",
                        "province_area",
                        "province_population",
                    ],
                },
                ChildKind {
                    tag: "city",
                    fields: &[
                        "city_name",
                        "city_longitude",
                        "city_latitude",
                        "city_population",
                    ],
                },
                ChildKind {
                    tag: "river",
                    fields: &["river_name", "river_length", "river_source", "river_mouth"],
                },
                ChildKind {
                    tag: "lake",
                    fields: &["lake_name", "lake_area", "lake_depth", "lake_elevation"],
                },
                ChildKind {
                    tag: "mountain",
                    fields: &[
                        "mountain_name",
                        "mountain_height",
                        "mountain_range",
                        "mountain_type",
                    ],
                },
                ChildKind {
                    tag: "desert",
                    fields: &[
                        "desert_name",
                        "desert_area",
                        "desert_longitude",
                        "desert_latitude",
                    ],
                },
                ChildKind {
                    tag: "island",
                    fields: &[
                        "island_name",
                        "island_area",
                        "island_elevation",
                        "island_sea",
                    ],
                },
                ChildKind {
                    tag: "sea",
                    fields: &["sea_name", "sea_depth", "sea_area", "sea_bordering"],
                },
                ChildKind {
                    tag: "language",
                    fields: &[
                        "language_name",
                        "language_percentage",
                        "language_family",
                        "language_script",
                    ],
                },
                ChildKind {
                    tag: "religion",
                    fields: &[
                        "religion_name",
                        "religion_percentage",
                        "religion_branch",
                        "religion_origin",
                    ],
                },
                ChildKind {
                    tag: "ethnicgroup",
                    fields: &[
                        "ethnic_name",
                        "ethnic_percentage",
                        "ethnic_region",
                        "ethnic_language",
                    ],
                },
                ChildKind {
                    tag: "border",
                    fields: &[
                        "border_country",
                        "border_length",
                        "border_type",
                        "border_crossings",
                    ],
                },
                ChildKind {
                    tag: "organization",
                    fields: &[
                        "org_abbrev",
                        "org_name",
                        "org_established",
                        "org_headquarters",
                    ],
                },
                ChildKind {
                    tag: "membership",
                    fields: &[
                        "membership_org",
                        "membership_type",
                        "membership_since",
                        "membership_status",
                    ],
                },
                ChildKind {
                    tag: "economy",
                    fields: &["gdp_total", "gdp_agriculture", "gdp_industry", "inflation"],
                },
                ChildKind {
                    tag: "population_data",
                    fields: &["census_year", "population_count", "growth_rate", "density"],
                },
                ChildKind {
                    tag: "politics",
                    fields: &[
                        "independence_year",
                        "government",
                        "dependent_on",
                        "was_dependent",
                    ],
                },
                ChildKind {
                    tag: "airport",
                    fields: &[
                        "airport_code",
                        "airport_name",
                        "airport_city",
                        "airport_elevation",
                    ],
                },
                ChildKind {
                    tag: "port",
                    fields: &["port_name", "port_city", "port_depth", "port_traffic"],
                },
                ChildKind {
                    tag: "canal",
                    fields: &["canal_name", "canal_length", "canal_depth"],
                },
                ChildKind {
                    tag: "national_park",
                    fields: &["park_name", "park_area", "park_founded"],
                },
                ChildKind {
                    tag: "highway",
                    fields: &["highway_code", "highway_length", "highway_lanes"],
                },
                ChildKind {
                    tag: "railway",
                    fields: &["railway_name", "railway_length", "railway_gauge"],
                },
                ChildKind {
                    tag: "power_plant",
                    fields: &["plant_name", "plant_capacity", "plant_type"],
                },
            ],
        }],
    }
}

// ---------------------------------------------------------------------------------
// YELP — JSON, 7 tables, 34 columns.
// ---------------------------------------------------------------------------------

/// YELP-like business/review dataset (JSON; 7 tables, 34 columns).
pub fn yelp() -> DatasetSpec {
    DatasetSpec {
        name: "YELP",
        format: "JSON",
        entities: &[
            EntityKind {
                tag: "business",
                fields: &[
                    "business_id",
                    "business_name",
                    "business_city",
                    "business_state",
                    "business_stars",
                    "business_review_count",
                    "address",
                    "postal_code",
                ],
                children: &[
                    ChildKind {
                        tag: "business_category",
                        fields: &["category"],
                    },
                    ChildKind {
                        tag: "business_hours",
                        fields: &["day", "open_time", "close_time"],
                    },
                    ChildKind {
                        tag: "review",
                        fields: &[
                            "review_id",
                            "review_stars",
                            "review_text",
                            "review_useful",
                            "review_date",
                        ],
                    },
                    ChildKind {
                        tag: "checkin",
                        fields: &["checkin_date", "checkin_count"],
                    },
                    ChildKind {
                        tag: "tip",
                        fields: &["tip_user", "tip_text", "tip_date", "tip_likes"],
                    },
                ],
            },
            EntityKind {
                tag: "user",
                fields: &[
                    "user_id",
                    "user_name",
                    "user_review_count",
                    "yelping_since",
                    "user_fans",
                    "average_stars",
                ],
                children: &[],
            },
        ],
    }
}

/// All four dataset simulators in the order of Table 2.
pub fn all_datasets() -> Vec<DatasetSpec> {
    vec![dblp(), imdb(), mondial(), yelp()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_and_column_counts_match_the_paper() {
        let expectations = [
            ("DBLP", 9, 39),
            ("IMDB", 9, 35),
            ("MONDIAL", 25, 120),
            ("YELP", 7, 34),
        ];
        for (spec, (name, tables, cols)) in all_datasets().iter().zip(expectations) {
            assert_eq!(spec.name, name);
            assert_eq!(spec.table_count(), tables, "{name} table count");
            assert_eq!(spec.schema().total_columns(), cols, "{name} column count");
            spec.schema()
                .validate()
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn generated_documents_are_consistent_with_expected_tables() {
        for spec in all_datasets() {
            let (tree, tables) = spec.generate(2);
            tree.validate().unwrap();
            let total: usize = tables.values().map(Table::len).sum();
            assert_eq!(total, spec.expected_rows(2), "{}", spec.name);
            for (name, table) in &tables {
                assert!(!table.is_empty(), "{}.{name} is empty", spec.name);
            }
        }
    }

    #[test]
    fn migration_plans_validate() {
        for spec in all_datasets() {
            let plan = spec.migration_plan();
            plan.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert_eq!(plan.tasks.len(), spec.table_count());
        }
    }

    #[test]
    fn document_text_renders_in_declared_format() {
        let xml = document_text(&dblp(), 1);
        assert!(xml.starts_with("<?xml"));
        mitra_hdt::xml::xml_to_hdt(&xml).unwrap();
        let json = document_text(&yelp(), 1);
        mitra_hdt::parse_json(&json).unwrap();
    }

    #[test]
    fn scaling_increases_rows_linearly() {
        let spec = imdb();
        assert_eq!(spec.expected_rows(4), 2 * spec.expected_rows(2));
        let (t1, _) = spec.generate(1);
        let (t4, _) = spec.generate(4);
        assert!(t4.len() > 3 * t1.len());
    }

    #[test]
    fn one_dataset_table_synthesizes_end_to_end() {
        // Keep the unit test fast: synthesize only the DBLP phdthesis table (4 columns,
        // no children).  The full per-dataset sweep runs in the bench harness.
        let spec = dblp();
        let (sample, expected) = spec.generate(2);
        let example = Example::new(sample.clone(), expected["phdthesis"].clone());
        let result =
            mitra_synth::synthesize::learn_transformation(&[example], &dataset_synth_config())
                .expect("phdthesis table should synthesize");
        let (big, big_expected) = spec.generate(5);
        let out = mitra_synth::exec::execute(&big, &result.program);
        assert!(
            out.same_bag(&big_expected["phdthesis"]),
            "generalization failed"
        );
    }
}
