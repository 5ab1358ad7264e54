//! End-to-end motivation demo: migrate a JSON dataset into a relational database with
//! example-driven synthesis, then answer SQL questions over the result — the use case
//! that motivates the paper's Section 1 ("data stored in an XML document may need to be
//! queried by an existing application that interacts with a relational database").
//!
//! Run with: `cargo run --release --example query_migrated_db`

use mitra::datagen::yelp;
use mitra::migrate::query::run_query;
use mitra::migrate::sql::dump_ddl;

fn main() {
    // 1. A YELP-like JSON dataset (businesses, reviews, users, ...) and its target
    //    relational schema: 7 tables, 34 columns, with primary and foreign keys —
    //    the same shape as the paper's Table 2 row for YELP.
    let spec = yelp();
    let (document, _expected) = spec.generate(40);
    println!(
        "Input document: {} elements; target schema: {} tables / {} columns",
        document.element_count(),
        spec.table_count(),
        spec.schema().total_columns()
    );

    // 2. Migrate: one synthesized program per table, executed with the optimized engine.
    let plan = spec.migration_plan();
    let report = plan.run(&document).expect("migration should succeed");
    println!(
        "Migrated {} rows in {:.2}s (synthesis {:.2}s); constraint violations: {}",
        report.total_rows(),
        report.total_execution_time().as_secs_f64(),
        report.total_synthesis_time().as_secs_f64(),
        report.database.check_constraints().len()
    );

    // 3. The schema the database now conforms to.
    println!("\n{}", dump_ddl(&report.database.schema));

    // 4. Ask relational questions that would be painful against the raw JSON.
    for sql in [
        "SELECT COUNT(*) FROM business",
        "SELECT business_city, COUNT(*) FROM business GROUP BY business_city ORDER BY business_city",
        "SELECT business.business_name, COUNT(review.review_id) FROM review \
         JOIN business ON review.business_business_id = business.business_id \
         GROUP BY business.business_name ORDER BY business.business_name LIMIT 5",
    ] {
        println!("\n> {sql}");
        let table = run_query(&report.database, sql).expect("the query runs");
        print!("{}", table.to_csv());
    }
}
