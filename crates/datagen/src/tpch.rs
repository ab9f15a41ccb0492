//! A TPC-H-like synthetic database with *uniform, independent* columns.
//!
//! The paper's Figure 4 contrasts cardinality estimation on JOB/IMDB with
//! TPC-H and finds TPC-H trivially easy, because the TPC-H generator obeys
//! the very assumptions (uniformity, independence, inclusion) that estimators
//! make.  This module reproduces that contrast: every attribute is drawn
//! uniformly and independently, and every foreign key has uniform fan-out.
//!
//! The schema keeps the eight TPC-H tables but uses surrogate `id` primary
//! keys and `<table>_id` foreign keys so the rest of the tooling (workload
//! builder, executor, statistics) treats both databases identically.

use rand::Rng;

use qob_storage::{ColumnMeta, DataType, Database, Result, TableBuilder, Value};

use crate::rng::stream_rng;
use crate::scale::Scale;

/// TPC-H region names.
pub const REGIONS: &[&str] = &["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

/// TPC-H nation names (one region each, round-robin).
pub const NATIONS: &[&str] = &[
    "ALGERIA",
    "ARGENTINA",
    "BRAZIL",
    "CANADA",
    "EGYPT",
    "ETHIOPIA",
    "FRANCE",
    "GERMANY",
    "INDIA",
    "INDONESIA",
    "IRAN",
    "IRAQ",
    "JAPAN",
    "JORDAN",
    "KENYA",
    "MOROCCO",
    "MOZAMBIQUE",
    "PERU",
    "CHINA",
    "ROMANIA",
    "SAUDI ARABIA",
    "VIETNAM",
    "RUSSIA",
    "UNITED KINGDOM",
    "UNITED STATES",
];

/// Market segments.
pub const SEGMENTS: &[&str] = &["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"];

/// Part type words.
pub const PART_TYPES: &[&str] = &[
    "ECONOMY ANODIZED STEEL",
    "ECONOMY BRUSHED BRASS",
    "STANDARD POLISHED TIN",
    "STANDARD PLATED COPPER",
    "MEDIUM BURNISHED NICKEL",
    "MEDIUM ANODIZED COPPER",
    "LARGE BRUSHED STEEL",
    "LARGE POLISHED NICKEL",
    "SMALL PLATED BRASS",
    "SMALL BURNISHED TIN",
    "PROMO ANODIZED STEEL",
    "PROMO PLATED COPPER",
];

/// Order priorities.
pub const PRIORITIES: &[&str] = &["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];

/// Return flags.
pub const RETURN_FLAGS: &[&str] = &["R", "A", "N"];

/// Generates the TPC-H-like database.  Sizes are derived from
/// [`Scale::tpch_orders`]: customers = orders / 10, parts = orders / 5,
/// suppliers = orders / 100, lineitems ≈ 4 × orders.
pub fn generate_tpch(scale: &Scale) -> Result<Database> {
    let mut db = Database::new();
    let orders_n = scale.tpch_orders();
    let customers_n = (orders_n / 10).max(10);
    let parts_n = (orders_n / 5).max(20);
    let suppliers_n = (orders_n / 100).max(5);

    // region
    let mut region = TableBuilder::new(
        "region",
        vec![ColumnMeta::new("id", DataType::Int), ColumnMeta::new("r_name", DataType::Str)],
    );
    for (i, r) in REGIONS.iter().enumerate() {
        region.push_row(vec![Value::Int(i as i64 + 1), Value::Str((*r).to_owned())])?;
    }
    let region_id = db.add_table(region.finish())?;

    // nation
    let mut nation = TableBuilder::new(
        "nation",
        vec![
            ColumnMeta::new("id", DataType::Int),
            ColumnMeta::new("n_name", DataType::Str),
            ColumnMeta::new("region_id", DataType::Int),
        ],
    );
    for (i, n) in NATIONS.iter().enumerate() {
        nation.push_row(vec![
            Value::Int(i as i64 + 1),
            Value::Str((*n).to_owned()),
            Value::Int((i % REGIONS.len()) as i64 + 1),
        ])?;
    }
    let nation_id = db.add_table(nation.finish())?;

    // customer
    let mut rng = stream_rng(scale.seed, "tpch-customer");
    let mut customer = TableBuilder::new(
        "customer",
        vec![
            ColumnMeta::new("id", DataType::Int),
            ColumnMeta::new("c_name", DataType::Str),
            ColumnMeta::new("nation_id", DataType::Int),
            ColumnMeta::new("c_mktsegment", DataType::Str),
            ColumnMeta::new("c_acctbal", DataType::Int),
        ],
    );
    for i in 0..customers_n {
        customer.push_row(vec![
            Value::Int(i as i64 + 1),
            Value::Str(format!("Customer#{:09}", i + 1)),
            Value::Int(rng.gen_range(1..=NATIONS.len() as i64)),
            Value::Str(SEGMENTS[rng.gen_range(0..SEGMENTS.len())].to_owned()),
            Value::Int(rng.gen_range(-999..10_000)),
        ])?;
    }
    let customer_id = db.add_table(customer.finish())?;

    // supplier
    let mut rng = stream_rng(scale.seed, "tpch-supplier");
    let mut supplier = TableBuilder::new(
        "supplier",
        vec![
            ColumnMeta::new("id", DataType::Int),
            ColumnMeta::new("s_name", DataType::Str),
            ColumnMeta::new("nation_id", DataType::Int),
        ],
    );
    for i in 0..suppliers_n {
        supplier.push_row(vec![
            Value::Int(i as i64 + 1),
            Value::Str(format!("Supplier#{:09}", i + 1)),
            Value::Int(rng.gen_range(1..=NATIONS.len() as i64)),
        ])?;
    }
    let supplier_id = db.add_table(supplier.finish())?;

    // part
    let mut rng = stream_rng(scale.seed, "tpch-part");
    let mut part = TableBuilder::new(
        "part",
        vec![
            ColumnMeta::new("id", DataType::Int),
            ColumnMeta::new("p_name", DataType::Str),
            ColumnMeta::new("p_type", DataType::Str),
            ColumnMeta::new("p_brand", DataType::Str),
            ColumnMeta::new("p_size", DataType::Int),
        ],
    );
    for i in 0..parts_n {
        part.push_row(vec![
            Value::Int(i as i64 + 1),
            Value::Str(format!("part {}", i + 1)),
            Value::Str(PART_TYPES[rng.gen_range(0..PART_TYPES.len())].to_owned()),
            Value::Str(format!("Brand#{}{}", rng.gen_range(1..6), rng.gen_range(1..6))),
            Value::Int(rng.gen_range(1..51)),
        ])?;
    }
    let part_id = db.add_table(part.finish())?;

    // partsupp
    let mut rng = stream_rng(scale.seed, "tpch-partsupp");
    let mut partsupp = TableBuilder::new(
        "partsupp",
        vec![
            ColumnMeta::new("id", DataType::Int),
            ColumnMeta::new("part_id", DataType::Int),
            ColumnMeta::new("supplier_id", DataType::Int),
            ColumnMeta::new("ps_availqty", DataType::Int),
        ],
    );
    let mut ps_id = 1i64;
    for p in 0..parts_n {
        for _ in 0..2 {
            partsupp.push_row(vec![
                Value::Int(ps_id),
                Value::Int(p as i64 + 1),
                Value::Int(rng.gen_range(1..=suppliers_n as i64)),
                Value::Int(rng.gen_range(1..10_000)),
            ])?;
            ps_id += 1;
        }
    }
    let partsupp_id = db.add_table(partsupp.finish())?;

    // orders
    let mut rng = stream_rng(scale.seed, "tpch-orders");
    let mut orders = TableBuilder::new(
        "orders",
        vec![
            ColumnMeta::new("id", DataType::Int),
            ColumnMeta::new("customer_id", DataType::Int),
            ColumnMeta::new("o_orderyear", DataType::Int),
            ColumnMeta::new("o_orderpriority", DataType::Str),
        ],
    );
    for i in 0..orders_n {
        orders.push_row(vec![
            Value::Int(i as i64 + 1),
            Value::Int(rng.gen_range(1..=customers_n as i64)),
            Value::Int(rng.gen_range(1992..1999)),
            Value::Str(PRIORITIES[rng.gen_range(0..PRIORITIES.len())].to_owned()),
        ])?;
    }
    let orders_id = db.add_table(orders.finish())?;

    // lineitem: uniform 1..=7 items per order.
    let mut rng = stream_rng(scale.seed, "tpch-lineitem");
    let mut lineitem = TableBuilder::new(
        "lineitem",
        vec![
            ColumnMeta::new("id", DataType::Int),
            ColumnMeta::new("order_id", DataType::Int),
            ColumnMeta::new("part_id", DataType::Int),
            ColumnMeta::new("supplier_id", DataType::Int),
            ColumnMeta::new("l_quantity", DataType::Int),
            ColumnMeta::new("l_shipyear", DataType::Int),
            ColumnMeta::new("l_returnflag", DataType::Str),
        ],
    );
    let mut li_id = 1i64;
    for o in 0..orders_n {
        let items = rng.gen_range(1..=7);
        for _ in 0..items {
            lineitem.push_row(vec![
                Value::Int(li_id),
                Value::Int(o as i64 + 1),
                Value::Int(rng.gen_range(1..=parts_n as i64)),
                Value::Int(rng.gen_range(1..=suppliers_n as i64)),
                Value::Int(rng.gen_range(1..51)),
                Value::Int(rng.gen_range(1992..1999)),
                Value::Str(RETURN_FLAGS[rng.gen_range(0..RETURN_FLAGS.len())].to_owned()),
            ])?;
            li_id += 1;
        }
    }
    let lineitem_id = db.add_table(lineitem.finish())?;

    // Keys.
    for (tid, _) in [
        (region_id, "region"),
        (nation_id, "nation"),
        (customer_id, "customer"),
        (supplier_id, "supplier"),
        (part_id, "part"),
        (partsupp_id, "partsupp"),
        (orders_id, "orders"),
        (lineitem_id, "lineitem"),
    ] {
        db.declare_primary_key(tid, "id")?;
    }
    db.declare_foreign_key(nation_id, "region_id", region_id)?;
    db.declare_foreign_key(customer_id, "nation_id", nation_id)?;
    db.declare_foreign_key(supplier_id, "nation_id", nation_id)?;
    db.declare_foreign_key(partsupp_id, "part_id", part_id)?;
    db.declare_foreign_key(partsupp_id, "supplier_id", supplier_id)?;
    db.declare_foreign_key(orders_id, "customer_id", customer_id)?;
    db.declare_foreign_key(lineitem_id, "order_id", orders_id)?;
    db.declare_foreign_key(lineitem_id, "part_id", part_id)?;
    db.declare_foreign_key(lineitem_id, "supplier_id", supplier_id)?;

    Ok(db)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_all_eight_tables_with_keys() {
        let db = generate_tpch(&Scale::tiny()).unwrap();
        assert_eq!(db.table_count(), 8);
        for name in
            ["region", "nation", "customer", "supplier", "part", "partsupp", "orders", "lineitem"]
        {
            let tid = db.table_id(name).unwrap_or_else(|| panic!("missing {name}"));
            assert!(db.keys(tid).primary_key.is_some());
        }
        let li = db.table_id("lineitem").unwrap();
        assert_eq!(db.keys(li).foreign_keys.len(), 3);
    }

    #[test]
    fn sizes_scale_with_orders() {
        let scale = Scale::tiny();
        let db = generate_tpch(&scale).unwrap();
        let orders = db.table_by_name("orders").unwrap().row_count();
        let lineitem = db.table_by_name("lineitem").unwrap().row_count();
        assert_eq!(orders, scale.tpch_orders());
        assert!(lineitem >= orders, "lineitems at least one per order");
        assert!(lineitem <= orders * 7);
        assert_eq!(db.table_by_name("region").unwrap().row_count(), 5);
        assert_eq!(db.table_by_name("nation").unwrap().row_count(), 25);
    }

    #[test]
    fn order_years_are_roughly_uniform() {
        let db = generate_tpch(&Scale::small()).unwrap();
        let orders = db.table_by_name("orders").unwrap();
        let year = orders.column_id("o_orderyear").unwrap();
        let mut counts = std::collections::HashMap::new();
        for r in orders.row_ids() {
            *counts.entry(orders.value(r, year).as_int().unwrap()).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 7, "years 1992..=1998");
        let max = *counts.values().max().unwrap() as f64;
        let min = *counts.values().min().unwrap() as f64;
        assert!(max / min < 1.6, "uniform years should have similar counts (max {max}, min {min})");
    }

    #[test]
    fn foreign_keys_are_dense_and_valid() {
        let db = generate_tpch(&Scale::tiny()).unwrap();
        let li = db.table_by_name("lineitem").unwrap();
        let orders_n = db.table_by_name("orders").unwrap().row_count() as i64;
        let col = li.column_id("order_id").unwrap();
        for r in li.row_ids() {
            let v = li.value(r, col).as_int().unwrap();
            assert!(v >= 1 && v <= orders_n);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_tpch(&Scale::tiny()).unwrap();
        let b = generate_tpch(&Scale::tiny()).unwrap();
        assert_eq!(a.total_rows(), b.total_rows());
        let ta = a.table_by_name("lineitem").unwrap();
        let tb = b.table_by_name("lineitem").unwrap();
        let col = ta.column_id("part_id").unwrap();
        for r in ta.row_ids().take(100) {
            assert_eq!(ta.value(r, col), tb.value(r, col));
        }
    }
}
