//! The benchmark's seeded inputs: the retail star and each workload's
//! change stream.
//!
//! Everything here is a function of the seed alone. Prices are whole
//! cents, as a retail feed carries them. A fixed probe (one time period,
//! one product, one store and three facts, identical for every seed) gives
//! every summary one group whose `SUM` no fold order of `f64` additions
//! rounds correctly; see [`PROBE_CENTS`].

use std::collections::{BTreeSet, HashMap, HashSet};

use md_relation::{row, Change, Database, Row};
use md_warehouse::ChangeBatch;
use md_workload::{retail_catalog, Contracts, RetailSchema};

use crate::rng::{Rng, Zipf};

/// Key of the probe's time, product and store rows; its facts take the
/// next keys.
pub const PROBE_ID: i64 = 1_000_000_000;
/// The probe's accounting period: a thirteenth period of 1997 that no
/// generated day falls into, so `product_sales` keeps it as its own group.
pub const PROBE_MONTH: i64 = 13;
/// The probe facts' prices in cents. For these three prices every order of
/// recursive `f64` summation differs from the correctly rounded exact sum,
/// so a `SUM` kept as a running `f64` fails the `sum_exact` check on every
/// seed (the reference tests prove the claim).
pub const PROBE_CENTS: [i64; 3] = [1509, 651, 132];
/// Shelf prices are uniform whole cents in this range.
const SHELF_CENTS: (i64, i64) = (99, 4_999);
/// Discounts off the shelf price, in percent. Half of all sales are at the
/// shelf price, the rest at one of the other levels.
const DISCOUNTS: [i64; 7] = [0, 5, 10, 15, 20, 25, 30];
/// Day 1 is 1996-10-01 (30-day months, 360-day years), so a star of 180
/// days covers three months of 1996 and three of 1997.
const FIRST_DAY: i64 = 270;

/// A price in whole cents as the `f64` the feed carries.
pub fn price(cents: i64) -> f64 {
    cents as f64 / 100.0
}

fn level_cents(shelf: i64, level: usize) -> i64 {
    (shelf * (100 - DISCOUNTS[level]) + 50) / 100
}

fn pick_level(rng: &mut Rng) -> usize {
    if rng.below(2) == 0 {
        0
    } else {
        1 + rng.below(DISCOUNTS.len() as u64 - 1) as usize
    }
}

/// One `sale` fact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fact {
    /// `sale.id`
    pub id: i64,
    /// `sale.timeid`
    pub timeid: i64,
    /// `sale.productid`
    pub productid: i64,
    /// `sale.storeid`
    pub storeid: i64,
    /// `sale.price` in cents.
    pub cents: i64,
}

impl Fact {
    fn row(&self) -> Row {
        row![
            self.id,
            self.timeid,
            self.productid,
            self.storeid,
            price(self.cents)
        ]
    }
}

/// The `time` row of day key `id` (1-based).
pub fn day_row(id: i64) -> Row {
    let d = id - 1 + FIRST_DAY;
    row![id, d % 30 + 1, (d % 360) / 30 + 1, 1996 + d / 360]
}

/// The last day key of 1996.
fn last_day_of_1996() -> i64 {
    360 - FIRST_DAY
}

fn probe_day_row() -> Row {
    row![PROBE_ID, 1i64, PROBE_MONTH, 1997i64]
}

fn product_row(id: i64, brand: &str) -> Row {
    row![id, brand, format!("cat-{}", id % 8)]
}

fn store_row(id: i64, manager: &str) -> Row {
    let city = if id == PROBE_ID {
        "probe-city".to_owned()
    } else {
        format!("city-{}", id % 16)
    };
    row![
        id,
        format!("{id} main st"),
        city,
        if id % 5 == 0 { "dk" } else { "us" },
        manager
    ]
}

/// Cardinalities of the generated star, after the paper's scale knobs.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// `time` rows (days).
    pub days: i64,
    /// `store` rows.
    pub stores: i64,
    /// `product` rows.
    pub products: i64,
    /// Distinct products each store sells each day.
    pub sold_per_day: i64,
    /// Each (day, store, product) has 1 to this many transactions.
    pub max_transactions: i64,
}

impl Shape {
    fn brands(&self) -> i64 {
        (self.products / 4).max(1)
    }
}

/// The generated star: the source database's initial contents.
#[derive(Debug, Clone)]
pub struct Star {
    /// Table handles of the retail catalog.
    pub schema: RetailSchema,
    shape: Shape,
    brands: Vec<String>,
    shelf: Vec<i64>,
    facts: Vec<Fact>,
}

impl Star {
    /// The star for `seed`: each store sells `sold_per_day` distinct
    /// products a day, each in 1 to `max_transactions` sales, at its shelf
    /// price or a discount off it; plus the probe.
    pub fn generate(shape: Shape, seed: u64) -> Star {
        let (_, schema) = retail_catalog(Contracts::Tight);
        let mut rng = Rng::new(seed ^ 0x5354_4152); // "STAR"
        let brands = (0..shape.products)
            .map(|_| format!("brand-{}", rng.below(shape.brands() as u64)))
            .collect();
        let shelf: Vec<i64> = (0..shape.products)
            .map(|_| rng.range(SHELF_CENTS.0, SHELF_CENTS.1))
            .collect();
        let mut facts = Vec::new();
        let mut sold = HashSet::new();
        for timeid in 1..=shape.days {
            for storeid in 1..=shape.stores {
                sold.clear();
                while (sold.len() as i64) < shape.sold_per_day.min(shape.products) {
                    sold.insert(rng.range(1, shape.products));
                }
                let mut products: Vec<i64> = sold.iter().copied().collect();
                products.sort_unstable();
                for productid in products {
                    for _ in 0..rng.range(1, shape.max_transactions) {
                        let level = pick_level(&mut rng);
                        facts.push(Fact {
                            id: facts.len() as i64 + 1,
                            timeid,
                            productid,
                            storeid,
                            cents: level_cents(shelf[productid as usize - 1], level),
                        });
                    }
                }
            }
        }
        Star {
            schema,
            shape,
            brands,
            shelf,
            facts,
        }
    }

    /// The probe's facts, never touched by any change stream.
    pub fn probe_facts() -> impl Iterator<Item = Fact> {
        PROBE_CENTS.iter().enumerate().map(|(i, &cents)| Fact {
            id: PROBE_ID + i as i64,
            timeid: PROBE_ID,
            productid: PROBE_ID,
            storeid: PROBE_ID,
            cents,
        })
    }

    /// Every initial row, table by table, dimensions first.
    pub fn rows(&self) -> Vec<(md_relation::TableId, Row)> {
        let s = self.schema;
        let mut out = Vec::new();
        out.extend((1..=self.shape.days).map(|id| (s.time, day_row(id))));
        out.push((s.time, probe_day_row()));
        for (i, brand) in self.brands.iter().enumerate() {
            out.push((s.product, product_row(i as i64 + 1, brand)));
        }
        out.push((s.product, product_row(PROBE_ID, "probe-brand")));
        for id in 1..=self.shape.stores {
            out.push((s.store, store_row(id, &format!("manager-{id}-0"))));
        }
        out.push((s.store, store_row(PROBE_ID, "probe-manager")));
        out.extend(self.facts.iter().map(|f| (s.sale, f.row())));
        out.extend(Self::probe_facts().map(|f| (s.sale, f.row())));
        out
    }

    /// The source database holding the star.
    pub fn database(&self) -> Database {
        let (cat, _) = retail_catalog(Contracts::Tight);
        let mut db = Database::new(cat);
        db.set_enforce_ri(false);
        for (table, row) in self.rows() {
            db.insert(table, row).expect("generated keys are unique");
        }
        db.set_enforce_ri(true);
        db.validate_ri()
            .expect("generated facts reference existing rows");
        db
    }
}

/// Shape of one workload's batches.
#[derive(Debug, Clone, Copy)]
pub enum Mix {
    /// Uniform-key fact changes: 60% insert, 20% delete, 20% reprice.
    Bulk {
        /// Fact changes per batch.
        changes: usize,
    },
    /// Zipf-skewed reprices of hot facts, insert-then-delete pairs and a
    /// net insert and delete per batch, all on sales of 1996: late
    /// corrections to last year's books, which `product_sales` (1997 only)
    /// filters out, so its `COUNT(DISTINCT brand)` recompute never runs and
    /// the per-batch fixed costs show.
    Hot {
        /// Hot facts repriced per batch.
        hot_rows: usize,
        /// Reprices of each of them per batch.
        reprices: usize,
        /// Insert-then-delete pairs per batch.
        pairs: usize,
        /// Size of the hot set the Zipf ranks index.
        hot_set: usize,
        /// Zipf exponent over the hot set.
        zipf_s: f64,
    },
    /// Multi-table batches: fact changes, deletes of every live fact at a
    /// product's current `MAX(price)` and manager edits in every batch;
    /// brand renames and new days and products that later facts reference
    /// in every `dim_every`-th batch.
    Dims {
        /// Uniform fact changes per batch: 45% insert, 25% delete, 30%
        /// reprice.
        fact_changes: usize,
        /// Products per batch whose top-priced facts are all deleted.
        max_clears: usize,
        /// `product.brand` renames per batch.
        renames: usize,
        /// `store.manager` edits per batch.
        manager_edits: usize,
        /// New `time` rows per batch.
        new_days: usize,
        /// New `product` rows per batch.
        new_products: usize,
        /// Renames and new rows come in one batch out of this many.
        dim_every: u64,
    },
}

/// Live facts with uniform sampling by key.
#[derive(Debug, Default)]
struct LiveFacts {
    by_id: HashMap<i64, (Fact, usize)>,
    ids: Vec<i64>,
}

impl LiveFacts {
    fn insert(&mut self, f: Fact) {
        self.by_id.insert(f.id, (f, self.ids.len()));
        self.ids.push(f.id);
    }

    fn remove(&mut self, id: i64) -> Fact {
        let (f, pos) = self.by_id.remove(&id).expect("removing a live fact");
        let last = self.ids.pop().expect("non-empty");
        if last != id {
            self.ids[pos] = last;
            self.by_id.get_mut(&last).expect("live").1 = pos;
        }
        f
    }

    fn get(&self, id: i64) -> Fact {
        self.by_id[&id].0
    }

    fn set_cents(&mut self, id: i64, cents: i64) {
        self.by_id.get_mut(&id).expect("live").0.cents = cents;
    }

    fn pick(&self, rng: &mut Rng) -> i64 {
        self.ids[rng.below(self.ids.len() as u64) as usize]
    }
}

/// The change-stream generator of one workload. It keeps its own copy of
/// the source state so every change it emits is valid against the state
/// the previous changes left.
#[derive(Debug)]
pub struct Feed {
    schema: RetailSchema,
    mix: Mix,
    rng: Rng,
    live: LiveFacts,
    next_fact: i64,
    days: i64,
    /// New facts fall on days `1..=days`, or within 1996 in the hot mix.
    new_fact_days: Option<i64>,
    brands_space: i64,
    brands: Vec<String>,
    shelf: Vec<i64>,
    managers: Vec<u64>,
    /// Hot facts (hot workload), indexed by Zipf rank.
    hot: Vec<i64>,
    hot_set: HashSet<i64>,
    zipf: Option<Zipf>,
    /// Per product, its live facts ordered by price (dims workload).
    by_price: HashMap<i64, BTreeSet<(i64, i64)>>,
    /// Batches generated so far.
    batches: u64,
}

impl Feed {
    /// The generator for `mix`, starting from `star`'s state.
    pub fn new(star: &Star, mix: Mix, seed: u64) -> Feed {
        let mut feed = Feed {
            schema: star.schema,
            mix,
            rng: Rng::new(seed ^ 0x4645_4544), // "FEED"
            live: LiveFacts::default(),
            next_fact: star.facts.len() as i64 + 1,
            days: star.shape.days,
            new_fact_days: None,
            brands_space: star.shape.brands() + 16,
            brands: star.brands.clone(),
            shelf: star.shelf.clone(),
            managers: vec![0; star.shape.stores as usize],
            hot: Vec::new(),
            hot_set: HashSet::new(),
            zipf: None,
            by_price: HashMap::new(),
            batches: 0,
        };
        for f in &star.facts {
            feed.add_fact(*f);
        }
        if let Mix::Hot {
            hot_set, zipf_s, ..
        } = mix
        {
            feed.new_fact_days = Some(last_day_of_1996().min(star.shape.days));
            let old: Vec<i64> = star
                .facts
                .iter()
                .filter(|f| f.timeid <= last_day_of_1996())
                .map(|f| f.id)
                .collect();
            while feed.hot.len() < hot_set.min(old.len()) {
                let id = old[feed.rng.below(old.len() as u64) as usize];
                if feed.hot_set.insert(id) {
                    feed.hot.push(id);
                }
            }
            feed.zipf = Some(Zipf::new(feed.hot.len(), zipf_s));
        }
        feed
    }

    fn tracks_prices(&self) -> bool {
        matches!(self.mix, Mix::Dims { .. })
    }

    fn add_fact(&mut self, f: Fact) {
        if self.tracks_prices() {
            self.by_price
                .entry(f.productid)
                .or_default()
                .insert((f.cents, f.id));
        }
        self.live.insert(f);
    }

    fn new_fact(&mut self) -> Change {
        let productid = self.rng.range(1, self.shelf.len() as i64);
        let level = pick_level(&mut self.rng);
        let f = Fact {
            id: self.next_fact,
            timeid: self.rng.range(1, self.new_fact_days.unwrap_or(self.days)),
            productid,
            storeid: self.rng.range(1, self.managers.len() as i64),
            cents: level_cents(self.shelf[productid as usize - 1], level),
        };
        self.next_fact += 1;
        self.add_fact(f);
        Change::Insert(f.row())
    }

    fn delete_fact(&mut self, id: i64) -> Change {
        let f = self.live.remove(id);
        if self.tracks_prices() {
            let set = self.by_price.get_mut(&f.productid).expect("tracked");
            set.remove(&(f.cents, f.id));
            if set.is_empty() {
                self.by_price.remove(&f.productid);
            }
        }
        Change::Delete(f.row())
    }

    /// Moves a fact to another price level of its product.
    fn reprice(&mut self, id: i64) -> Change {
        let old = self.live.get(id);
        let shelf = self.shelf[old.productid as usize - 1];
        let cents = loop {
            let c = level_cents(shelf, pick_level(&mut self.rng));
            if c != old.cents {
                break c;
            }
        };
        if self.tracks_prices() {
            let set = self.by_price.get_mut(&old.productid).expect("tracked");
            set.remove(&(old.cents, id));
            set.insert((cents, id));
        }
        self.live.set_cents(id, cents);
        let new = Fact { cents, ..old };
        Change::Update {
            old: old.row(),
            new: new.row(),
        }
    }

    /// A live fact of 1996 that is not in the hot set.
    fn pick_cold(&mut self) -> i64 {
        loop {
            let id = self.live.pick(&mut self.rng);
            if !self.hot_set.contains(&id) && self.live.get(id).timeid <= last_day_of_1996() {
                return id;
            }
        }
    }

    /// The next `n` batches of the stream.
    pub fn batches(&mut self, n: usize) -> Vec<ChangeBatch> {
        (0..n).map(|_| self.batch()).collect()
    }

    fn batch(&mut self) -> ChangeBatch {
        let mut batch = ChangeBatch::new();
        match self.mix {
            Mix::Bulk { changes } => self.bulk(&mut batch, changes),
            Mix::Hot {
                hot_rows,
                reprices,
                pairs,
                ..
            } => self.hot(&mut batch, hot_rows, reprices, pairs),
            Mix::Dims { .. } => self.dims(&mut batch),
        }
        self.batches += 1;
        batch
    }

    fn bulk(&mut self, batch: &mut ChangeBatch, changes: usize) {
        for _ in 0..changes {
            let u = self.rng.unit();
            let change = if u < 0.6 {
                self.new_fact()
            } else if u < 0.8 {
                let id = self.live.pick(&mut self.rng);
                self.delete_fact(id)
            } else {
                let id = self.live.pick(&mut self.rng);
                self.reprice(id)
            };
            batch.push(self.schema.sale, change);
        }
    }

    fn hot(&mut self, batch: &mut ChangeBatch, hot_rows: usize, reprices: usize, pairs: usize) {
        let sale = self.schema.sale;
        let zipf = self.zipf.take().expect("hot mix has a Zipf sampler");
        let mut rows: Vec<i64> = Vec::with_capacity(hot_rows);
        while rows.len() < hot_rows.min(self.hot.len()) {
            let id = self.hot[zipf.sample(&mut self.rng)];
            if !rows.contains(&id) {
                rows.push(id);
            }
        }
        self.zipf = Some(zipf);
        let pair_ids: Vec<i64> = (0..pairs).map(|i| self.next_fact + i as i64).collect();
        for _ in 0..pairs {
            let c = self.new_fact();
            batch.push(sale, c);
        }
        for _ in 0..reprices {
            for &id in &rows {
                let c = self.reprice(id);
                batch.push(sale, c);
            }
        }
        for id in pair_ids {
            let c = self.delete_fact(id);
            batch.push(sale, c);
        }
        let c = self.new_fact();
        batch.push(sale, c);
        let id = self.pick_cold();
        let c = self.delete_fact(id);
        batch.push(sale, c);
    }

    fn dims(&mut self, batch: &mut ChangeBatch) {
        let Mix::Dims {
            fact_changes,
            max_clears,
            renames,
            manager_edits,
            new_days,
            new_products,
            dim_every,
        } = self.mix
        else {
            unreachable!("dims batches come from the dims mix")
        };
        let (renames, new_days, new_products) = if self.batches % dim_every == dim_every - 1 {
            (renames, new_days, new_products)
        } else {
            (0, 0, 0)
        };
        let s = self.schema;
        // New dimension rows first; facts reference them from the next
        // batch on, so `days` and `shelf` grow after this batch's facts.
        for k in 1..=new_days as i64 {
            batch.push(s.time, Change::Insert(day_row(self.days + k)));
        }
        let first_new = self.shelf.len() as i64 + 1;
        let mut fresh = Vec::new();
        for id in first_new..first_new + new_products as i64 {
            let brand = format!("brand-{}", self.rng.below(self.brands_space as u64));
            batch.push(s.product, Change::Insert(product_row(id, &brand)));
            fresh.push((brand, self.rng.range(SHELF_CENTS.0, SHELF_CENTS.1)));
        }
        for _ in 0..renames {
            let id = self.rng.range(1, self.brands.len() as i64);
            let old = self.brands[id as usize - 1].clone();
            let mut brand = old.clone();
            while brand == old {
                brand = format!("brand-{}", self.rng.below(self.brands_space as u64));
            }
            batch.push(
                s.product,
                Change::Update {
                    old: product_row(id, &old),
                    new: product_row(id, &brand),
                },
            );
            self.brands[id as usize - 1] = brand;
        }
        for _ in 0..manager_edits {
            let id = self.rng.range(1, self.managers.len() as i64);
            let k = &mut self.managers[id as usize - 1];
            let old = store_row(id, &format!("manager-{id}-{k}"));
            *k += 1;
            let new = store_row(id, &format!("manager-{id}-{k}"));
            batch.push(s.store, Change::Update { old, new });
        }
        for _ in 0..max_clears {
            // A product drawn by sales volume loses every sale at its top
            // price, so its MAX(price) must be recomputed.
            let product = self.live.get(self.live.pick(&mut self.rng)).productid;
            let set = &self.by_price[&product];
            let top = set.last().expect("non-empty").0;
            let ids: Vec<i64> = set
                .iter()
                .rev()
                .take_while(|(c, _)| *c == top)
                .map(|p| p.1)
                .collect();
            for id in ids {
                let c = self.delete_fact(id);
                batch.push(s.sale, c);
            }
        }
        for _ in 0..fact_changes {
            let u = self.rng.unit();
            let change = if u < 0.45 {
                self.new_fact()
            } else if u < 0.70 {
                let id = self.live.pick(&mut self.rng);
                self.delete_fact(id)
            } else {
                let id = self.live.pick(&mut self.rng);
                self.reprice(id)
            };
            batch.push(s.sale, change);
        }
        self.days += new_days as i64;
        for (brand, shelf) in fresh {
            self.brands.push(brand);
            self.shelf.push(shelf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> Shape {
        Shape {
            days: 120,
            stores: 3,
            products: 30,
            sold_per_day: 5,
            max_transactions: 3,
        }
    }

    #[test]
    fn star_is_a_function_of_the_seed() {
        let a = Star::generate(shape(), 1).rows();
        let b = Star::generate(shape(), 1).rows();
        let c = Star::generate(shape(), 2).rows();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn probe_month_is_never_generated() {
        for id in 1..=2_000 {
            let r = day_row(id);
            let month = match r.get(2) {
                md_relation::Value::Int(m) => *m,
                v => panic!("month is {v:?}"),
            };
            assert!((1..=12).contains(&month) && month != PROBE_MONTH);
        }
    }

    #[test]
    fn streams_stay_valid_against_the_sources() {
        // Mirroring every change into the source database succeeds only
        // if each delete and update names a live row and each insert
        // references existing dimension rows.
        let star = Star::generate(shape(), 5);
        let mixes = [
            Mix::Bulk { changes: 64 },
            Mix::Hot {
                hot_rows: 2,
                reprices: 4,
                pairs: 2,
                hot_set: 16,
                zipf_s: 1.1,
            },
            Mix::Dims {
                fact_changes: 48,
                max_clears: 2,
                renames: 2,
                manager_edits: 1,
                new_days: 1,
                new_products: 1,
                dim_every: 2,
            },
        ];
        for mix in mixes {
            let mut db = star.database();
            let mut feed = Feed::new(&star, mix, 9);
            for batch in feed.batches(20) {
                for (table, changes) in batch.groups() {
                    for change in changes {
                        let key = |r: &Row| r.get(0).clone();
                        match change {
                            Change::Insert(r) => db.insert(*table, r.clone()).map(|_| ()),
                            Change::Delete(r) => db.delete(*table, &key(r)).map(|_| ()),
                            Change::Update { old, new } => {
                                db.update(*table, &key(old), new.clone()).map(|_| ())
                            }
                        }
                        .unwrap_or_else(|e| panic!("{mix:?}: {change} rejected: {e}"));
                    }
                }
            }
            db.validate_ri().unwrap();
        }
    }
}
