//! The independent reference: the benchmark's own record of the live base
//! rows and, from it, each paper view's expected groups.
//!
//! Nothing here calls the program's evaluator or its oracle. Groups are
//! computed with plain maps, and `SUM` with a correctly rounded exact
//! summation (Shewchuk's partials, rounded as Python's `math.fsum` does).
//! Per group the record also keeps the full change history's length and
//! absolute mass, which bounds the error any order of recursive `f64`
//! summation can make.

use std::collections::{BTreeMap, HashMap, HashSet};

use md_relation::{Change, Row, Value};
use md_warehouse::ChangeBatch;
use md_workload::RetailSchema;

use crate::star::Star;

/// Exact sum of a sequence of finite doubles as a Shewchuk expansion:
/// non-overlapping partials whose exact total is the exact sum.
#[derive(Debug, Clone, Default)]
pub struct ExactSum {
    partials: Vec<f64>,
}

impl ExactSum {
    /// Adds `x` exactly.
    pub fn add(&mut self, mut x: f64) {
        let mut i = 0;
        for j in 0..self.partials.len() {
            let mut y = self.partials[j];
            if x.abs() < y.abs() {
                std::mem::swap(&mut x, &mut y);
            }
            let hi = x + y;
            let lo = y - (hi - x);
            if lo != 0.0 {
                self.partials[i] = lo;
                i += 1;
            }
            x = hi;
        }
        self.partials.truncate(i);
        self.partials.push(x);
    }

    /// The exact sum rounded once to the nearest double, ties to even.
    pub fn value(&self) -> f64 {
        let p = &self.partials;
        let mut n = p.len();
        if n == 0 {
            return 0.0;
        }
        n -= 1;
        let mut hi = p[n];
        let mut lo = 0.0;
        while n > 0 {
            let x = hi;
            n -= 1;
            let y = p[n];
            hi = x + y;
            lo = y - (hi - x);
            if lo != 0.0 {
                break;
            }
        }
        // The partials below `lo` decide a tie that `hi + lo` would round
        // to even: push it the way they point.
        if n > 0 && ((lo < 0.0 && p[n - 1] < 0.0) || (lo > 0.0 && p[n - 1] > 0.0)) {
            let y = lo * 2.0;
            let x = hi + y;
            if y == x - hi {
                hi = x;
            }
        }
        hi
    }
}

/// The four paper views the benchmark registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Summary {
    /// `product_sales`: per month of 1997, SUM/COUNT/COUNT(DISTINCT brand).
    ProductSales,
    /// `product_sales_max`: per product, MAX/SUM/COUNT.
    ProductSalesMax,
    /// `store_revenue`: per city, SUM/AVG/COUNT.
    StoreRevenue,
    /// `daily_product`: per (day, product), SUM/COUNT.
    DailyProduct,
}

impl Summary {
    /// Every summary, in the warehouse's name order.
    pub const ALL: [Summary; 4] = [
        Summary::DailyProduct,
        Summary::ProductSales,
        Summary::ProductSalesMax,
        Summary::StoreRevenue,
    ];

    /// The view's name.
    pub fn name(self) -> &'static str {
        match self {
            Summary::ProductSales => "product_sales",
            Summary::ProductSalesMax => "product_sales_max",
            Summary::StoreRevenue => "store_revenue",
            Summary::DailyProduct => "daily_product",
        }
    }

    /// The view's definition.
    pub fn sql(self) -> &'static str {
        use md_workload::views;
        match self {
            Summary::ProductSales => views::PRODUCT_SALES_SQL,
            Summary::ProductSalesMax => views::PRODUCT_SALES_MAX_SQL,
            Summary::StoreRevenue => views::STORE_REVENUE_SQL,
            Summary::DailyProduct => views::DAILY_PRODUCT_SQL,
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// A group key of one of the views.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Key {
    /// Month, product id.
    Int(i64),
    /// City.
    Str(String),
    /// (day id, product id).
    Pair(i64, i64),
}

#[derive(Debug, Clone, Copy)]
struct RefFact {
    timeid: i64,
    productid: i64,
    storeid: i64,
    price: f64,
}

/// Length and absolute mass of a group's change history.
#[derive(Debug, Clone, Copy, Default)]
struct History {
    events: u64,
    mass: f64,
}

impl History {
    /// The recursive-summation error bound `γ(k)·mass` (Higham, Accuracy
    /// and Stability of Numerical Algorithms, §4.2) with `k = 2·events + 2`,
    /// doubled. The doubling and the `2·events` cover sums folded from
    /// partial sums that were themselves maintained incrementally; a lost
    /// or doubled change of at least one cent lies far outside it.
    fn bound(self) -> f64 {
        let u = f64::EPSILON / 2.0;
        let k = (2 * self.events + 2) as f64;
        2.0 * (k * u / (1.0 - k * u)) * self.mass
    }
}

/// One expected group.
#[derive(Debug, Clone, Default)]
struct Expected {
    count: i64,
    sum: ExactSum,
    max: f64,
    brands: HashSet<String>,
}

/// A summary's expected groups at one point of the stream.
#[derive(Debug)]
pub struct Expectation {
    summary: Summary,
    groups: BTreeMap<Key, Expected>,
}

/// One group as the warehouse reports it.
#[derive(Debug, Clone, Copy, Default)]
struct Reported {
    count: i64,
    sum: f64,
    max: Option<f64>,
    avg: Option<f64>,
    distinct: Option<i64>,
}

/// The outcome of the three checks on one summary. `Err` carries the
/// first mismatch found, for the log.
#[derive(Debug)]
pub struct CheckOutcome {
    /// Group keys, COUNT, MAX and COUNT(DISTINCT) bit-equal to the reference.
    pub exact: Result<(), String>,
    /// SUM and AVG within the error bound of the group's change history.
    pub sum_bound: Result<(), String>,
    /// SUM bit-equal to the correctly rounded exact sum.
    pub sum_exact: Result<(), String>,
}

/// The reference record of the live base rows.
#[derive(Debug)]
pub struct Reference {
    schema: RetailSchema,
    facts: HashMap<i64, RefFact>,
    /// Day id → (month, year).
    time: HashMap<i64, (i64, i64)>,
    brand: HashMap<i64, String>,
    city: HashMap<i64, String>,
    /// Per column count of each table, for the detail-data model.
    arity: HashMap<md_relation::TableId, usize>,
    history: [HashMap<Key, History>; 4],
}

fn int(row: &Row, i: usize) -> i64 {
    match row.get(i) {
        Value::Int(v) => *v,
        v => panic!("column {i} of {row} is {v:?}, not Int"),
    }
}

fn dbl(row: &Row, i: usize) -> f64 {
    match row.get(i) {
        Value::Double(v) => *v,
        v => panic!("column {i} of {row} is {v:?}, not Double"),
    }
}

fn text(row: &Row, i: usize) -> String {
    match row.get(i) {
        Value::Str(v) => v.clone(),
        v => panic!("column {i} of {row} is {v:?}, not Str"),
    }
}

impl Reference {
    /// The record of `star`'s initial rows; each initial fact is one
    /// history event of its groups (the initial load).
    pub fn new(star: &Star) -> Self {
        let s = star.schema;
        let mut reference = Reference {
            schema: s,
            facts: HashMap::new(),
            time: HashMap::new(),
            brand: HashMap::new(),
            city: HashMap::new(),
            arity: [(s.time, 4), (s.product, 3), (s.store, 5), (s.sale, 5)]
                .into_iter()
                .collect(),
            history: Default::default(),
        };
        for (table, row) in star.rows() {
            reference.apply_change(table, &Change::Insert(row));
        }
        reference
    }

    /// Applies every change of `batch`, in order.
    pub fn apply(&mut self, batch: &ChangeBatch) {
        for (table, changes) in batch.groups() {
            for change in changes {
                self.apply_change(*table, change);
            }
        }
    }

    fn apply_change(&mut self, table: md_relation::TableId, change: &Change) {
        let s = self.schema;
        let (old, new) = change.as_delete_insert();
        if table == s.sale {
            if let Some(r) = old {
                let f = self.facts.remove(&int(r, 0)).expect("deleting a live fact");
                self.touch(&f);
            }
            if let Some(r) = new {
                let f = RefFact {
                    timeid: int(r, 1),
                    productid: int(r, 2),
                    storeid: int(r, 3),
                    price: dbl(r, 4),
                };
                self.touch(&f);
                self.facts.insert(int(r, 0), f);
            }
            return;
        }
        // Dimension rows: the generator only renames brands and edits
        // managers, neither of which moves a fact to another group.
        if let Some(r) = old {
            let id = int(r, 0);
            if table == s.time {
                self.time.remove(&id);
            } else if table == s.product {
                self.brand.remove(&id);
            } else if table == s.store {
                self.city.remove(&id);
            }
        }
        if let Some(r) = new {
            let id = int(r, 0);
            if table == s.time {
                self.time.insert(id, (int(r, 2), int(r, 3)));
            } else if table == s.product {
                self.brand.insert(id, text(r, 1));
            } else if table == s.store {
                self.city.insert(id, text(r, 2));
            }
        }
    }

    fn key(&self, summary: Summary, f: &RefFact) -> Option<Key> {
        match summary {
            Summary::ProductSales => {
                let (month, year) = self.time[&f.timeid];
                (year == 1997).then_some(Key::Int(month))
            }
            Summary::ProductSalesMax => Some(Key::Int(f.productid)),
            Summary::StoreRevenue => Some(Key::Str(self.city[&f.storeid].clone())),
            Summary::DailyProduct => Some(Key::Pair(f.timeid, f.productid)),
        }
    }

    /// Records one add or remove of `f.price` in each group `f` falls in.
    fn touch(&mut self, f: &RefFact) {
        for summary in Summary::ALL {
            if let Some(key) = self.key(summary, f) {
                let h = self.history[summary.index()].entry(key).or_default();
                h.events += 1;
                h.mass += f.price.abs();
            }
        }
    }

    /// Live rows of every base table in the paper's model: fields × 4 bytes.
    pub fn base_bytes(&self) -> u64 {
        let s = self.schema;
        let rows = [
            (s.sale, self.facts.len()),
            (s.time, self.time.len()),
            (s.product, self.brand.len()),
            (s.store, self.city.len()),
        ];
        rows.iter()
            .map(|(t, n)| (self.arity[t] * n) as u64 * Value::PAPER_FIELD_BYTES)
            .sum()
    }

    /// The expected groups of `summary` over the live rows.
    pub fn expected(&self, summary: Summary) -> Expectation {
        let mut groups: BTreeMap<Key, Expected> = BTreeMap::new();
        for f in self.facts.values() {
            let Some(key) = self.key(summary, f) else {
                continue;
            };
            let g = groups.entry(key).or_default();
            if g.count == 0 || f.price > g.max {
                g.max = f.price;
            }
            g.count += 1;
            g.sum.add(f.price);
            if summary == Summary::ProductSales {
                g.brands.insert(self.brand[&f.productid].clone());
            }
        }
        Expectation { summary, groups }
    }

    fn reported(summary: Summary, rows: &[Row]) -> BTreeMap<Key, Reported> {
        rows.iter()
            .map(|r| match summary {
                Summary::ProductSales => (
                    Key::Int(int(r, 0)),
                    Reported {
                        sum: dbl(r, 1),
                        count: int(r, 2),
                        distinct: Some(int(r, 3)),
                        ..Reported::default()
                    },
                ),
                Summary::ProductSalesMax => (
                    Key::Int(int(r, 0)),
                    Reported {
                        max: Some(dbl(r, 1)),
                        sum: dbl(r, 2),
                        count: int(r, 3),
                        ..Reported::default()
                    },
                ),
                Summary::StoreRevenue => (
                    Key::Str(text(r, 0)),
                    Reported {
                        sum: dbl(r, 1),
                        avg: Some(dbl(r, 2)),
                        count: int(r, 3),
                        ..Reported::default()
                    },
                ),
                Summary::DailyProduct => (
                    Key::Pair(int(r, 0), int(r, 1)),
                    Reported {
                        sum: dbl(r, 2),
                        count: int(r, 3),
                        ..Reported::default()
                    },
                ),
            })
            .collect()
    }

    /// Runs the three checks of a summary's `rows` against `expectation`.
    pub fn check(&self, expectation: &Expectation, rows: &[Row]) -> CheckOutcome {
        let summary = expectation.summary;
        let expected = &expectation.groups;
        let reported = Self::reported(summary, rows);
        let mut exact = Ok(());
        let mut sum_bound = Ok(());
        let mut sum_exact: Result<(), String> = Ok(());
        let mut off = 0usize;
        let fail = |slot: &mut Result<(), String>, msg: String| {
            if slot.is_ok() {
                *slot = Err(msg);
            }
        };
        if rows.len() != reported.len() {
            fail(
                &mut exact,
                format!("{} rows for {} keys", rows.len(), reported.len()),
            );
        }
        for key in expected.keys().filter(|k| !reported.contains_key(k)) {
            fail(&mut exact, format!("group {key:?} missing"));
        }
        for (key, got) in &reported {
            let Some(want) = expected.get(key) else {
                fail(&mut exact, format!("group {key:?} has no live rows"));
                continue;
            };
            if got.count != want.count {
                fail(
                    &mut exact,
                    format!("{key:?}: count {} != {}", got.count, want.count),
                );
            }
            if let Some(max) = got.max {
                if max.to_bits() != want.max.to_bits() {
                    fail(&mut exact, format!("{key:?}: max {max} != {}", want.max));
                }
            }
            if let Some(d) = got.distinct {
                if d != want.brands.len() as i64 {
                    fail(
                        &mut exact,
                        format!("{key:?}: distinct {d} != {}", want.brands.len()),
                    );
                }
            }
            let exact_sum = want.sum.value();
            let bound = self.history[summary.index()]
                .get(key)
                .copied()
                .unwrap_or_default()
                .bound();
            if (got.sum - exact_sum).abs() > bound {
                fail(
                    &mut sum_bound,
                    format!("{key:?}: sum {} is {exact_sum} ± {bound:e}", got.sum),
                );
            }
            if let Some(avg) = got.avg {
                let mean = exact_sum / want.count as f64;
                let tol = bound / want.count as f64 + 4.0 * f64::EPSILON * mean.abs();
                if (avg - mean).abs() > tol {
                    fail(
                        &mut sum_bound,
                        format!("{key:?}: avg {avg} is {mean} ± {tol:e}"),
                    );
                }
            }
            if got.sum.to_bits() != exact_sum.to_bits() {
                off += 1;
                fail(
                    &mut sum_exact,
                    format!("{key:?}: sum {} != exact {exact_sum}", got.sum),
                );
            }
        }
        let sum_exact =
            sum_exact.map_err(|e| format!("{off} of {} groups off; first {e}", reported.len()));
        CheckOutcome {
            exact,
            sum_bound,
            sum_exact,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::star::{price, Shape, PROBE_CENTS};

    fn exact(xs: &[f64]) -> f64 {
        let mut s = ExactSum::default();
        for &x in xs {
            s.add(x);
        }
        s.value()
    }

    #[test]
    fn exact_sum_hand_worked_cases() {
        assert_eq!(exact(&[]), 0.0);
        assert_eq!(exact(&[1e16, 1.0, -1e16]), 1.0);
        assert_eq!(exact(&[1e100, 1.0, -1e100, 1e-100]), 1.0);
        // 0.1 + 0.2 + 0.3 folds to 0.6000000000000001; the exact sum of
        // the three doubles, 0.60000000000000000555…, rounds to 0.6.
        assert_eq!((0.1 + 0.2) + 0.3, 0.6000000000000001);
        assert_eq!(exact(&[0.1, 0.2, 0.3]), 0.6);
        // Ten dimes: the running sum is 0.9999999999999999.
        assert_eq!(exact(&[0.1; 10]), 1.0);
        // A tie between two doubles decided by a third, tiny partial.
        assert_eq!(
            exact(&[1.0, f64::EPSILON / 2.0, 1e-300]),
            1.0 + f64::EPSILON
        );
        assert_eq!(exact(&[1.0, f64::EPSILON / 2.0]), 1.0);
    }

    #[test]
    fn cent_priced_group_sums_exactly() {
        // The three doubles of 15.09, 6.51 and 1.32 sum exactly to
        // 22.91999999999999815258888702373951…, whose nearest double is
        // 22.919999999999998.
        let xs = PROBE_CENTS.map(price);
        assert_eq!(exact(&xs), 22.919999999999998);
    }

    #[test]
    fn no_fold_order_of_the_probe_rounds_correctly() {
        let xs = PROBE_CENTS.map(price);
        let want = exact(&xs);
        for (a, b, c) in [
            (0, 1, 2),
            (0, 2, 1),
            (1, 0, 2),
            (1, 2, 0),
            (2, 0, 1),
            (2, 1, 0),
        ] {
            assert_ne!((xs[a] + xs[b]) + xs[c], want, "order {a}{b}{c}");
        }
    }

    #[test]
    fn checks_catch_lost_and_doubled_changes() {
        let shape = Shape {
            days: 120,
            stores: 3,
            products: 8,
            sold_per_day: 2,
            max_transactions: 2,
        };
        let star = Star::generate(shape, 11);
        let reference = Reference::new(&star);
        for summary in Summary::ALL {
            let expectation = reference.expected(summary);
            let expected = &expectation.groups;
            // Rows as a correct program would report them.
            let rows: Vec<Row> = expected
                .iter()
                .map(|(k, g)| {
                    let sum = g.sum.value();
                    let c = g.count;
                    match (summary, k) {
                        (Summary::ProductSales, Key::Int(m)) => {
                            md_relation::row![*m, sum, c, g.brands.len() as i64]
                        }
                        (Summary::ProductSalesMax, Key::Int(p)) => {
                            md_relation::row![*p, g.max, sum, c]
                        }
                        (Summary::StoreRevenue, Key::Str(city)) => {
                            md_relation::row![city.as_str(), sum, sum / c as f64, c]
                        }
                        (Summary::DailyProduct, Key::Pair(t, p)) => {
                            md_relation::row![*t, *p, sum, c]
                        }
                        _ => unreachable!(),
                    }
                })
                .collect();
            let ok = reference.check(&expectation, &rows);
            assert!(ok.exact.is_ok() && ok.sum_bound.is_ok() && ok.sum_exact.is_ok());

            // A lost cent in one group's SUM fails the bound and the exact
            // sum but not the exact check.
            let mut lost = rows.clone();
            let col = match summary {
                Summary::ProductSales | Summary::StoreRevenue => 1,
                Summary::ProductSalesMax | Summary::DailyProduct => 2,
            };
            let mut vals = lost[0].values().to_vec();
            vals[col] = Value::Double(dbl(&lost[0], col) - 0.01);
            lost[0] = Row::new(vals);
            let out = reference.check(&expectation, &lost);
            assert!(out.exact.is_ok() && out.sum_bound.is_err() && out.sum_exact.is_err());

            // A missing group fails the exact check.
            let out = reference.check(&expectation, &rows[1..]);
            assert!(out.exact.is_err(), "{summary:?}");
        }
    }
}
