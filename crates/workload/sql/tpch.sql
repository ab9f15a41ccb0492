-- TPC-H-shaped join queries over the uniform synthetic TPC-H database.
--
-- The paper's Figure 4 contrasts PostgreSQL's estimation errors on three of
-- the larger TPC-H queries (Q5, Q8, Q10) with four JOB queries; the TPC-H
-- side is easy because the data is uniform and independent.  These three
-- queries reproduce the join shapes of those queries (their aggregations
-- are irrelevant for cardinality estimation).  Like job.sql, the file is in
-- `emit_script`'s canonical form.

-- Q5-shaped query: customer ⋈ orders ⋈ lineitem ⋈ supplier ⋈ nation ⋈ region
-- with a region and an order-year predicate: 6 join predicates over 6
-- relations, the supplier–nation edge closing a cycle.
-- name: tpch5
SELECT COUNT(*)
FROM customer AS c,
     orders AS o,
     lineitem AS l,
     supplier AS s,
     nation AS n,
     region AS r
WHERE o.customer_id = c.id
  AND l.order_id = o.id
  AND l.supplier_id = s.id
  AND c.nation_id = n.id
  AND s.nation_id = n.id
  AND n.region_id = r.id
  AND o.o_orderyear = 1994
  AND r.r_name = 'ASIA';

-- Q8-shaped query: part ⋈ lineitem ⋈ supplier ⋈ orders ⋈ customer ⋈ nation ⋈ region
-- with a part-type, region and order-year range predicate.
-- name: tpch8
SELECT COUNT(*)
FROM part AS p,
     lineitem AS l,
     supplier AS s,
     orders AS o,
     customer AS c,
     nation AS n,
     region AS r
WHERE l.part_id = p.id
  AND l.supplier_id = s.id
  AND l.order_id = o.id
  AND o.customer_id = c.id
  AND c.nation_id = n.id
  AND n.region_id = r.id
  AND p.p_type = 'ECONOMY ANODIZED STEEL'
  AND o.o_orderyear BETWEEN 1995 AND 1996
  AND r.r_name = 'AMERICA';

-- Q10-shaped query: customer ⋈ orders ⋈ lineitem ⋈ nation with a returned
-- flag and an order-year predicate.
-- name: tpch10
SELECT COUNT(*)
FROM customer AS c,
     orders AS o,
     lineitem AS l,
     nation AS n
WHERE o.customer_id = c.id
  AND l.order_id = o.id
  AND c.nation_id = n.id
  AND o.o_orderyear = 1993
  AND l.l_returnflag = 'R';
