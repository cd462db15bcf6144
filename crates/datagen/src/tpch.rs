//! TPC-H-like generator (`orders`, `lineitem`, `part`).
//!
//! Proportions follow TPC-H at the configured scale factor: 1,500,000
//! orders and ≈6,000,000 lineitems per unit of scale, 200,000 parts.  Only
//! the columns exercised by the paper's experiments are materialized (plus
//! a few realistic extras used by the examples); this keeps memory linear
//! in what the experiments actually touch.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rqo_storage::{days_from_civil, Catalog, DataType, Schema, Table, TableBuilder, Value};

/// First order date in the generated range (TPC-H's STARTDATE).
pub const MIN_ORDER_DATE: (i32, u32, u32) = (1992, 1, 1);
/// Last order date (TPC-H's ENDDATE minus max ship lag).
pub const MAX_ORDER_DATE: (i32, u32, u32) = (1998, 8, 2);

/// Number of distinct values of the correlated pair columns `p_x`/`p_y`.
pub const PART_X_DOMAIN: i64 = 1000;
/// `p_y = (p_x + U(0, PART_Y_LAG - 1)) mod PART_X_DOMAIN`.
pub const PART_Y_LAG: i64 = 200;

/// Configuration for the TPC-H-like generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TpchConfig {
    /// Scale factor: 1.0 ⇒ ≈6M `lineitem` rows (the paper's SF 1).
    pub scale_factor: f64,
    /// RNG seed; identical configs generate identical data.
    pub seed: u64,
}

impl Default for TpchConfig {
    fn default() -> Self {
        Self {
            scale_factor: 0.01,
            seed: 42,
        }
    }
}

impl TpchConfig {
    /// Number of orders at this scale.
    fn num_orders(&self) -> usize {
        ((1_500_000.0 * self.scale_factor) as usize).max(1)
    }

    /// Number of parts at this scale.
    fn num_parts(&self) -> usize {
        ((200_000.0 * self.scale_factor) as usize).max(1)
    }
}

/// The generated tables.
#[derive(Debug)]
pub struct TpchData {
    /// The `orders` table.
    pub orders: Table,
    /// The `lineitem` table (≈4 rows per order).
    pub lineitem: Table,
    /// The `part` table, including the correlated `p_x`/`p_y` pair.
    pub part: Table,
}

impl TpchData {
    /// Generates all three tables.
    pub fn generate(config: &TpchConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let part = generate_part(config, &mut rng);
        let (orders, lineitem) = generate_orders_and_lineitem(config, &mut rng);
        Self {
            orders,
            lineitem,
            part,
        }
    }

    /// Registers the tables, the FK edges
    /// (`lineitem.l_orderkey → orders.o_orderkey`,
    /// `lineitem.l_partkey → part.p_partkey`), and the nonclustered indexes
    /// used by the experiments (`l_shipdate`, `l_receiptdate`,
    /// `l_partkey`).
    pub fn into_catalog(self) -> Catalog {
        let mut cat = Catalog::new();
        cat.add_table(self.orders).expect("fresh catalog");
        cat.add_table(self.part).expect("fresh catalog");
        cat.add_table(self.lineitem).expect("fresh catalog");
        cat.add_foreign_key("lineitem", "l_orderkey", "orders", "o_orderkey")
            .expect("valid FK");
        cat.add_foreign_key("lineitem", "l_partkey", "part", "p_partkey")
            .expect("valid FK");
        for col in ["l_shipdate", "l_receiptdate", "l_partkey", "l_orderkey"] {
            cat.ensure_secondary_index("lineitem", col)
                .expect("column exists");
        }
        cat.ensure_unique_index("orders", "o_orderkey").expect("pk");
        cat.ensure_unique_index("part", "p_partkey").expect("pk");
        cat
    }
}

fn generate_part(config: &TpchConfig, rng: &mut StdRng) -> Table {
    let n = config.num_parts();
    let schema = Schema::from_pairs(&[
        ("p_partkey", DataType::Int),
        ("p_brand", DataType::Str),
        ("p_container", DataType::Str),
        ("p_size", DataType::Int),
        ("p_retailprice", DataType::Float),
        ("p_x", DataType::Int),
        ("p_y", DataType::Int),
    ]);
    const CONTAINERS_A: [&str; 5] = ["SM", "MED", "LG", "JUMBO", "WRAP"];
    const CONTAINERS_B: [&str; 8] = ["BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "CASE", "DRUM"];
    let mut b = TableBuilder::new("part", schema, n);
    for key in 1..=n as i64 {
        let brand = format!("Brand#{}{}", rng.gen_range(1..=5), rng.gen_range(1..=5));
        let container = format!(
            "{} {}",
            CONTAINERS_A[rng.gen_range(0..CONTAINERS_A.len())],
            CONTAINERS_B[rng.gen_range(0..CONTAINERS_B.len())]
        );
        let x = rng.gen_range(0..PART_X_DOMAIN);
        let y = (x + rng.gen_range(0..PART_Y_LAG)) % PART_X_DOMAIN;
        b.push_row(&[
            Value::Int(key),
            Value::str(brand.as_str()),
            Value::str(container.as_str()),
            Value::Int(rng.gen_range(1..=50)),
            Value::Float(900.0 + (key % 1000) as f64 * 0.1),
            Value::Int(x),
            Value::Int(y),
        ]);
    }
    b.finish()
}

fn generate_orders_and_lineitem(config: &TpchConfig, rng: &mut StdRng) -> (Table, Table) {
    let n_orders = config.num_orders();
    let n_parts = config.num_parts() as i64;
    let min_date = days_from_civil(MIN_ORDER_DATE.0, MIN_ORDER_DATE.1, MIN_ORDER_DATE.2);
    let max_date = days_from_civil(MAX_ORDER_DATE.0, MAX_ORDER_DATE.1, MAX_ORDER_DATE.2);

    let orders_schema = Schema::from_pairs(&[
        ("o_orderkey", DataType::Int),
        ("o_custkey", DataType::Int),
        ("o_orderdate", DataType::Date),
        ("o_totalprice", DataType::Float),
    ]);
    let lineitem_schema = Schema::from_pairs(&[
        ("l_orderkey", DataType::Int),
        ("l_partkey", DataType::Int),
        ("l_quantity", DataType::Float),
        ("l_extendedprice", DataType::Float),
        ("l_shipdate", DataType::Date),
        ("l_receiptdate", DataType::Date),
    ]);

    let n_customers = (n_orders as i64 / 10).max(1);
    let mut orders = TableBuilder::new("orders", orders_schema, n_orders);
    let mut lineitem = TableBuilder::new("lineitem", lineitem_schema, n_orders * 4);

    for orderkey in 1..=n_orders as i64 {
        let orderdate = rng.gen_range(min_date..=max_date);
        let mut total = 0.0;
        // TPC-H: 1–7 lineitems per order, uniform (mean 4).
        let n_items = rng.gen_range(1..=7);
        for _ in 0..n_items {
            let partkey = rng.gen_range(1..=n_parts);
            let quantity = rng.gen_range(1..=50) as f64;
            let price = quantity * (900.0 + (partkey % 1000) as f64 * 0.1);
            // Ship 1–121 days after the order; receive 1–30 days after
            // shipping.  The ship/receipt correlation is the heart of
            // Experiment 1.
            let shipdate = orderdate + rng.gen_range(1..=121);
            let receiptdate = shipdate + rng.gen_range(1..=30);
            total += price;
            lineitem.push_row(&[
                Value::Int(orderkey),
                Value::Int(partkey),
                Value::Float(quantity),
                Value::Float(price),
                Value::Date(shipdate),
                Value::Date(receiptdate),
            ]);
        }
        orders.push_row(&[
            Value::Int(orderkey),
            Value::Int(rng.gen_range(1..=n_customers)),
            Value::Date(orderdate),
            Value::Float(total),
        ]);
    }
    (orders.finish(), lineitem.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TpchData {
        TpchData::generate(&TpchConfig {
            scale_factor: 0.002, // 3000 orders, ~12000 lineitems, 400 parts
            seed: 7,
        })
    }

    #[test]
    fn row_counts_scale() {
        let d = small();
        assert_eq!(d.orders.num_rows(), 3000);
        assert_eq!(d.part.num_rows(), 400);
        let ratio = d.lineitem.num_rows() as f64 / d.orders.num_rows() as f64;
        assert!((3.5..4.5).contains(&ratio), "lineitem/order ratio {ratio}");
    }

    #[test]
    fn deterministic_for_seed() {
        let a = small();
        let b = small();
        assert_eq!(a.lineitem.num_rows(), b.lineitem.num_rows());
        for rid in [0u32, 100, 1000] {
            assert_eq!(a.lineitem.row(rid), b.lineitem.row(rid));
            assert_eq!(a.part.row(rid % 400), b.part.row(rid % 400));
        }
        let c = TpchData::generate(&TpchConfig {
            scale_factor: 0.002,
            seed: 8,
        });
        assert_ne!(a.lineitem.row(0), c.lineitem.row(0));
    }

    #[test]
    fn receipt_follows_ship() {
        let d = small();
        let ship_idx = d.lineitem.schema().expect_index("l_shipdate");
        let recv_idx = d.lineitem.schema().expect_index("l_receiptdate");
        let ship = d.lineitem.date_column(ship_idx);
        let recv = d.lineitem.date_column(recv_idx);
        for i in 0..d.lineitem.num_rows() {
            let lag = recv[i] - ship[i];
            assert!((1..=30).contains(&lag), "lag {lag} at row {i}");
        }
    }

    #[test]
    fn part_xy_correlation_structure() {
        let d = small();
        let x_idx = d.part.schema().expect_index("p_x");
        let y_idx = d.part.schema().expect_index("p_y");
        let xs = d.part.int_column(x_idx);
        let ys = d.part.int_column(y_idx);
        for i in 0..d.part.num_rows() {
            let lag = (ys[i] - xs[i]).rem_euclid(PART_X_DOMAIN);
            assert!(
                (0..PART_Y_LAG).contains(&lag),
                "lag {lag} outside [0, {PART_Y_LAG})"
            );
        }
    }

    #[test]
    fn part_y_marginal_is_roughly_uniform() {
        // p_y must be (approximately) uniform so that shifting the query
        // window on p_y keeps the marginal selectivity constant.
        let d = TpchData::generate(&TpchConfig {
            scale_factor: 0.05, // 10k parts
            seed: 3,
        });
        let y_idx = d.part.schema().expect_index("p_y");
        let ys = d.part.int_column(y_idx);
        let n = ys.len() as f64;
        // Count in 10 coarse buckets of 100 values each.
        let mut buckets = [0usize; 10];
        for &y in ys {
            buckets[(y / 100) as usize] += 1;
        }
        for (i, &c) in buckets.iter().enumerate() {
            let frac = c as f64 / n;
            assert!(
                (0.08..0.12).contains(&frac),
                "bucket {i} has fraction {frac}"
            );
        }
    }

    #[test]
    fn foreign_keys_are_valid() {
        let d = small();
        let n_orders = d.orders.num_rows() as i64;
        let n_parts = d.part.num_rows() as i64;
        let ok_idx = d.lineitem.schema().expect_index("l_orderkey");
        let pk_idx = d.lineitem.schema().expect_index("l_partkey");
        for i in 0..d.lineitem.num_rows() as u32 {
            let ok = d.lineitem.value(i, ok_idx).as_int();
            let pk = d.lineitem.value(i, pk_idx).as_int();
            assert!((1..=n_orders).contains(&ok));
            assert!((1..=n_parts).contains(&pk));
        }
    }

    #[test]
    fn catalog_assembly() {
        let cat = small().into_catalog();
        assert!(cat.table("lineitem").is_ok());
        assert_eq!(cat.foreign_keys().len(), 2);
        assert!(cat.secondary_index("lineitem", "l_shipdate").is_some());
        assert!(cat.unique_index("orders", "o_orderkey").is_some());
        assert!(cat.unique_index("part", "p_partkey").is_some());
    }

    #[test]
    fn dates_in_range() {
        let d = small();
        let min = days_from_civil(1992, 1, 1);
        let max = days_from_civil(1998, 8, 2) + 151; // order + ship + receipt lag
        let ship_idx = d.lineitem.schema().expect_index("l_shipdate");
        for &s in d.lineitem.date_column(ship_idx) {
            assert!(s > min && s < max);
        }
    }
}
