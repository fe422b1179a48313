//! Every run is billed one way (`RunStats::cost`), so the same clean run
//! costs the same wherever a report prints it. The committed seed-42
//! report must show that: for every (app, storage) pair of the F2 fault
//! study, the clean bill equals the Figs 2–4 cell of the same run at
//! F2's worker count, bit for bit, S3's request fees included.

use serde_json::Value;

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key).unwrap_or_else(|| panic!("report lacks `{key}`"))
}

fn text(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("not a string: {other:?}"),
    }
}

fn num(v: &Value) -> f64 {
    match *v {
        Value::F64(f) => f,
        Value::I64(n) => n as f64,
        Value::U64(n) => n as f64,
        ref other => panic!("not a number: {other:?}"),
    }
}

#[test]
fn f2_clean_bill_equals_the_figure_cell() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../reports/repro-42.json");
    let json = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let report: Value = serde_json::from_str(&json).expect("the report parses");

    let faults = field(&report, "faults");
    let workers = num(field(faults, "workers"));
    let figure_cell = |app: &str, storage: &str| -> f64 {
        let figures = field(&report, "runtime_figures").as_array().expect("array");
        let cells = figures
            .iter()
            .flat_map(|f| field(f, "cells").as_array().expect("array"));
        let hit = cells
            .filter(|c| {
                let cell = field(c, "cell");
                text(field(cell, "app")) == app
                    && text(field(cell, "storage")) == storage
                    && num(field(cell, "workers")) == workers
            })
            .map(|c| num(field(c, "cost_per_hour_usd")))
            .collect::<Vec<_>>();
        assert_eq!(hit.len(), 1, "one {app}/{storage}@{workers} figure cell");
        hit[0]
    };

    let mut pairs: Vec<(String, String)> = Vec::new();
    for row in field(faults, "rows").as_array().expect("array") {
        let (app, storage) = (text(field(row, "app")), text(field(row, "storage")));
        let clean = num(field(row, "clean_cost_usd"));
        let cell = figure_cell(app, storage);
        assert_eq!(
            clean.to_bits(),
            cell.to_bits(),
            "{app}/{storage}: F2 clean bill ${clean} vs figure cell ${cell}"
        );
        let pair = (app.to_owned(), storage.to_owned());
        if !pairs.contains(&pair) {
            pairs.push(pair);
        }
    }
    assert_eq!(pairs.len(), 12, "three apps × four storages: {pairs:?}");
}
