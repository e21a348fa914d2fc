//! Tier-1 guard of `REPRODUCTION.json`: the table is rerun at the committed
//! scale (on the virtual clock, so in any profile and on any machine) and
//! must equal the committed file cell for cell; every paper claim's
//! direction must hold; and the checker must catch each kind of edit.

use std::sync::OnceLock;
use vqpy_bench::reproduce::{diff, render, run, Row, SCALE};

/// One run of the table serves every test of this file.
fn rows() -> &'static [Row] {
    static ROWS: OnceLock<Vec<Row>> = OnceLock::new();
    ROWS.get_or_init(|| run(SCALE))
}

fn fresh() -> String {
    render(SCALE, rows())
}

/// `doc` with the first `from` at or after row `id`'s opening replaced.
fn edit(doc: &str, id: &str, from: &str, to: &str) -> String {
    let row = doc.find(&format!("\"id\": \"{id}\"")).expect("row exists");
    let at = row + doc[row..].find(from).expect("cell exists");
    format!("{}{to}{}", &doc[..at], &doc[at + from.len()..])
}

#[test]
fn table_equals_the_committed_file() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../REPRODUCTION.json");
    let committed = std::fs::read_to_string(path).expect("REPRODUCTION.json is committed");
    let lines = diff(&committed, &fresh()).join("\n");
    let fix = "cargo run --release -p vqpy-bench --bin reproduce -- --write";
    assert!(
        lines.is_empty(),
        "committed → fresh; if intended, `{fix}` and say why in CHANGES.md:\n{lines}"
    );
}

#[test]
fn every_claim_points_the_papers_way() {
    for r in rows() {
        assert!(r.holds, "{}: \"{}\" fails, ours {}", r.id, r.paper, r.ours);
        let empty = r.asserts_f1() && r.degenerate();
        assert!(
            !empty,
            "{}: an F1 claim scored against an empty truth set",
            r.id
        );
        assert!(
            r.in_band() || !r.note.is_empty(),
            "{}: a missed band says why",
            r.id
        );
    }
    // The bands this reproduction is known to miss stay recorded as missed.
    for id in [
        "fig16.naive.jackson",
        "fig16.refined.jackson",
        "tab5.shared",
    ] {
        let r = rows().iter().find(|r| r.id == id).expect("row exists");
        assert!(
            !r.in_band(),
            "{id} now in band: update the README's list of misses"
        );
    }
}

#[test]
fn rows_are_sorted_and_rendering_is_stable() {
    let ids: Vec<&str> = rows().iter().map(|r| r.id.as_str()).collect();
    assert!(
        ids.windows(2).all(|w| w[0] < w[1]),
        "sorted, unique: {ids:?}"
    );
    assert_eq!(fresh(), fresh());
    for line in fresh().lines().filter(|l| l.contains("\"ours\": ")) {
        let decimals = line.trim_end_matches(',').rsplit('.').next().unwrap_or("");
        assert_eq!(decimals.len(), 3, "fixed decimals: {line}");
    }
}

#[test]
fn checker_names_row_and_column_of_each_kind_of_edit() {
    let (doc, first) = (fresh(), &rows()[0]);
    assert!(diff(&doc, &doc).is_empty());

    // One digit of one number.
    let ours = format!("\"ours\": {:.3}", first.ours);
    let edited = edit(&doc, &first.id, &ours, &format!("{ours}1"));
    let lines = diff(&edited, &doc);
    assert_eq!(lines.len(), 1, "{lines:?}");
    assert!(
        lines[0].starts_with(&format!("{}.ours: ", first.id)),
        "{lines:?}"
    );

    // A band flag flipped with no number changed.
    let flag = format!("\"in_band\": {}", first.in_band());
    let flipped = edit(
        &doc,
        &first.id,
        &flag,
        &format!("\"in_band\": {}", !first.in_band()),
    );
    let line = format!(
        "{}.in_band: {} → {}",
        first.id,
        !first.in_band(),
        first.in_band()
    );
    assert_eq!(diff(&flipped, &doc), [line]);

    // A row missing from, then extra in, the fresh run.
    let without = render(SCALE, &rows()[1..]);
    let missing = diff(&doc, &without);
    let named = |l: &String| l.starts_with(&format!("{}.", first.id));
    assert!(
        !missing.is_empty() && missing.iter().all(named),
        "{missing:?}"
    );
    let cell = format!("{}.ours: {} → (absent)", first.id, first.ours);
    assert!(missing.contains(&cell), "{missing:?}");
    let cell = format!("{}.ours: (absent) → {}", first.id, first.ours);
    assert!(diff(&without, &doc).contains(&cell));

    // The same cells in other bytes are still a difference.
    assert_eq!(diff(&doc.replacen("\n", "\n\n", 1), &doc).len(), 1);
}
