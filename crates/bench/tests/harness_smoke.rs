//! Harness plumbing smoke tests. The training-free experiments' rows are
//! checked in their own modules' unit tests, which build the tables without
//! writing them, so the suite leaves `results/` untouched.

use legw_bench::{batch_sweep, Table};

#[test]
fn csv_capture_writes_parseable_files() {
    let mut t = Table::new("smoke", &["a", "b"]);
    t.row(vec!["1".into(), "x,y".into()]);
    let path = t.write_csv("smoke_test").unwrap();
    let content = std::fs::read_to_string(&path).unwrap();
    assert!(content.starts_with("a,b\n"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn batch_sweep_is_inclusive_doubling() {
    assert_eq!(batch_sweep(16, 128), vec![16, 32, 64, 128]);
    assert_eq!(batch_sweep(8, 8), vec![8]);
}
