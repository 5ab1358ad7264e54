//! Parsing allocates per document, not per node.
//!
//! This file is its own test binary with one test, so no other test thread
//! allocates while a parse is counted: a counting global allocator tallies every
//! `alloc`, `alloc_zeroed` and `realloc` the counting thread makes.  For each
//! Table 2 dataset, rendered as XML text and as JSON text, one parse (after a
//! warm-up parse that interns the tags) must make at most [`MAX_ALLOCATIONS`]
//! allocations at scale 250, and at most [`MAX_GROWTH`] more than at scale 25:
//! a parse may grow its buffers, but allocates nothing per node.

use mitra::datagen::corpus::{hdt_to_json_text, hdt_to_xml_text};
use mitra::datagen::datasets::all_datasets;
use mitra::hdt::json::json_to_hdt;
use mitra::hdt::xml::xml_to_hdt;
use mitra::hdt::{Hdt, HdtError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Allocations one parse at scale 250 may make.
const MAX_ALLOCATIONS: usize = 64;

/// How many more allocations a parse at scale 250 may make than one at scale 25.
const MAX_GROWTH: usize = 16;

/// The system allocator, counting the calls of the thread that asked for it.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by one `parse` of `text`, which must succeed.  The tree is
/// dropped after counting stops.
fn allocations(parse: fn(&str) -> Result<Hdt, HdtError>, text: &str) -> usize {
    ALLOCATIONS.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let tree = parse(text);
    COUNTING.with(|c| c.set(false));
    let made = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(tree.is_ok(), "the rendered document parses");
    made
}

#[test]
fn parsing_a_table2_document_allocates_per_document() {
    type Format = (
        &'static str,
        fn(&Hdt) -> String,
        fn(&str) -> Result<Hdt, HdtError>,
    );
    let formats: [Format; 2] = [
        ("XML", hdt_to_xml_text, xml_to_hdt),
        ("JSON", hdt_to_json_text, json_to_hdt),
    ];
    let mut report = Vec::new();
    for spec in all_datasets() {
        let small = spec.generate(25).0;
        let large = spec.generate(250).0;
        for (format, render, parse) in formats {
            let (small, large) = (render(&small), render(&large));
            allocations(parse, &large);
            let at_25 = allocations(parse, &small);
            let at_250 = allocations(parse, &large);
            report.push(format!(
                "{} {format}: {at_25} at 25, {at_250} at 250",
                spec.name
            ));
            assert!(
                at_250 <= MAX_ALLOCATIONS && at_250 <= at_25 + MAX_GROWTH,
                "{}",
                report.join("; ")
            );
        }
    }
    println!("{}", report.join("\n"));
}
