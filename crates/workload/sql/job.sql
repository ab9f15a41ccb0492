-- The Join Order Benchmark reproduction workload.
--
-- 33 query families, 113 queries in total, over the 21-table IMDB-like
-- schema.  Families mirror the structural themes of the original JOB: short
-- dimension-lookup queries, company/keyword/cast combinations, rating
-- queries, link (sequel) queries, complete-cast queries and the large
-- 14–17-relation "everything at once" families.  Within a family, variants
-- share the join structure and differ only in their selection predicates —
-- exactly the original benchmark's design, which makes the variants' optimal
-- plans (and runtimes) diverge widely.
--
-- The original JOB text is published as SQL against the real IMDB snapshot.
-- This reproduction generates its own IMDB-like data, so the queries keep the
-- original join structures and the same kinds of predicates (equality on
-- dimension values, IN lists, LIKE patterns, year ranges, null tests) over
-- the generated vocabulary.
--
-- Every statement is in canonical form: exactly what `emit_script` writes
-- for its bound query.  To edit a query, change it in place and keep that
-- form; `tests/sql_roundtrip.rs` binds and re-emits every statement and
-- names the first one that differs.  Comment lines other than `-- name:`
-- are free text.

-- Family 1 (4 variants): production companies of rated movies.
-- `t ⋈ mc ⋈ ct ⋈ miidx ⋈ it2` — 4 joins.
-- name: 1a
SELECT COUNT(*)
FROM title AS t,
     movie_companies AS mc,
     company_type AS ct,
     movie_info_idx AS miidx,
     info_type AS it2
WHERE mc.movie_id = t.id
  AND mc.company_type_id = ct.id
  AND miidx.movie_id = t.id
  AND miidx.info_type_id = it2.id
  AND mc.note LIKE '%(co-production)%'
  AND ct.kind = 'production companies'
  AND it2.info = 'top 250 rank';

-- name: 1b
SELECT COUNT(*)
FROM title AS t,
     movie_companies AS mc,
     company_type AS ct,
     movie_info_idx AS miidx,
     info_type AS it2
WHERE mc.movie_id = t.id
  AND mc.company_type_id = ct.id
  AND miidx.movie_id = t.id
  AND miidx.info_type_id = it2.id
  AND mc.note LIKE '%(presents)%'
  AND ct.kind = 'production companies'
  AND it2.info = 'top 250 rank';

-- name: 1c
SELECT COUNT(*)
FROM title AS t,
     movie_companies AS mc,
     company_type AS ct,
     movie_info_idx AS miidx,
     info_type AS it2
WHERE mc.movie_id = t.id
  AND mc.company_type_id = ct.id
  AND miidx.movie_id = t.id
  AND miidx.info_type_id = it2.id
  AND t.production_year > 2005
  AND mc.note LIKE '%(co-production)%'
  AND ct.kind = 'production companies'
  AND it2.info = 'top 250 rank';

-- name: 1d
SELECT COUNT(*)
FROM title AS t,
     movie_companies AS mc,
     company_type AS ct,
     movie_info_idx AS miidx,
     info_type AS it2
WHERE mc.movie_id = t.id
  AND mc.company_type_id = ct.id
  AND miidx.movie_id = t.id
  AND miidx.info_type_id = it2.id
  AND t.production_year > 2000
  AND ct.kind = 'production companies'
  AND it2.info = 'top 250 rank';

-- Family 2 (4 variants): movies of companies from a country carrying a
-- specific keyword.  `t ⋈ mc ⋈ cn ⋈ ct ⋈ mk ⋈ k` — 6 joins.
-- name: 2a
SELECT COUNT(*)
FROM title AS t,
     movie_companies AS mc,
     company_name AS cn,
     company_type AS ct,
     movie_keyword AS mk,
     keyword AS k
WHERE mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND mc.company_type_id = ct.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND cn.country_code = '[us]'
  AND k.keyword = 'character-name-in-title';

-- name: 2b
SELECT COUNT(*)
FROM title AS t,
     movie_companies AS mc,
     company_name AS cn,
     company_type AS ct,
     movie_keyword AS mk,
     keyword AS k
WHERE mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND mc.company_type_id = ct.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND cn.country_code = '[de]'
  AND k.keyword = 'character-name-in-title';

-- name: 2c
SELECT COUNT(*)
FROM title AS t,
     movie_companies AS mc,
     company_name AS cn,
     company_type AS ct,
     movie_keyword AS mk,
     keyword AS k
WHERE mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND mc.company_type_id = ct.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND cn.country_code = '[gb]'
  AND k.keyword = 'character-name-in-title';

-- name: 2d
SELECT COUNT(*)
FROM title AS t,
     movie_companies AS mc,
     company_name AS cn,
     company_type AS ct,
     movie_keyword AS mk,
     keyword AS k
WHERE mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND mc.company_type_id = ct.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND cn.country_code = '[fr]'
  AND k.keyword = 'character-name-in-title';

-- Family 3 (3 variants): keyworded movies with a genre restriction.
-- `t ⋈ mk ⋈ k ⋈ mi` — 3 joins.
-- name: 3a
SELECT COUNT(*)
FROM title AS t,
     movie_keyword AS mk,
     keyword AS k,
     movie_info AS mi
WHERE mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND mi.movie_id = t.id
  AND t.production_year > 2005
  AND k.keyword LIKE '%sequel%'
  AND mi.info IN ('Germany', 'German');

-- name: 3b
SELECT COUNT(*)
FROM title AS t,
     movie_keyword AS mk,
     keyword AS k,
     movie_info AS mi
WHERE mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND mi.movie_id = t.id
  AND t.production_year > 2008
  AND k.keyword LIKE '%sequel%'
  AND mi.info IN ('USA', 'English');

-- name: 3c
SELECT COUNT(*)
FROM title AS t,
     movie_keyword AS mk,
     keyword AS k,
     movie_info AS mi
WHERE mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND mi.movie_id = t.id
  AND t.production_year > 1990
  AND k.keyword LIKE '%sequel%';

-- Family 4 (3 variants): ratings of keyworded movies.
-- `t ⋈ miidx ⋈ it2 ⋈ mk ⋈ k` — 4 joins.
-- name: 4a
SELECT COUNT(*)
FROM title AS t,
     movie_info_idx AS miidx,
     info_type AS it2,
     movie_keyword AS mk,
     keyword AS k
WHERE miidx.movie_id = t.id
  AND miidx.info_type_id = it2.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND t.production_year > 2005
  AND it2.info = 'rating'
  AND k.keyword LIKE '%sequel%';

-- name: 4b
SELECT COUNT(*)
FROM title AS t,
     movie_info_idx AS miidx,
     info_type AS it2,
     movie_keyword AS mk,
     keyword AS k
WHERE miidx.movie_id = t.id
  AND miidx.info_type_id = it2.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND t.production_year > 2010
  AND it2.info = 'rating'
  AND k.keyword LIKE '%sequel%';

-- name: 4c
SELECT COUNT(*)
FROM title AS t,
     movie_info_idx AS miidx,
     info_type AS it2,
     movie_keyword AS mk,
     keyword AS k
WHERE miidx.movie_id = t.id
  AND miidx.info_type_id = it2.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND t.production_year > 1990
  AND it2.info = 'rating'
  AND k.keyword LIKE '%sequel%';

-- Family 5 (3 variants): genre/language info of movies from typed companies.
-- `t ⋈ mc ⋈ ct ⋈ mi ⋈ it` — 4 joins.
-- name: 5a
SELECT COUNT(*)
FROM title AS t,
     movie_companies AS mc,
     company_type AS ct,
     movie_info AS mi,
     info_type AS it
WHERE mc.movie_id = t.id
  AND mc.company_type_id = ct.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND t.production_year > 2005
  AND mc.note LIKE '%(co-production)%'
  AND ct.kind = 'production companies'
  AND mi.info IN ('Drama', 'Horror');

-- name: 5b
SELECT COUNT(*)
FROM title AS t,
     movie_companies AS mc,
     company_type AS ct,
     movie_info AS mi,
     info_type AS it
WHERE mc.movie_id = t.id
  AND mc.company_type_id = ct.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND t.production_year > 2000
  AND ct.kind = 'production companies'
  AND mi.info IN ('Drama', 'Comedy', 'Action');

-- name: 5c
SELECT COUNT(*)
FROM title AS t,
     movie_companies AS mc,
     company_type AS ct,
     movie_info AS mi,
     info_type AS it
WHERE mc.movie_id = t.id
  AND mc.company_type_id = ct.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND ct.kind = 'production companies'
  AND mi.info IN ('German', 'French', 'Italian');

-- Family 6 (6 variants): cast members of keyworded movies.
-- `t ⋈ ci ⋈ n ⋈ mk ⋈ k` — 5 joins.
-- name: 6a
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     name AS n,
     movie_keyword AS mk,
     keyword AS k
WHERE ci.movie_id = t.id
  AND ci.person_id = n.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND t.production_year > 2005
  AND n.name LIKE '%Tim%'
  AND k.keyword = 'marvel-comics';

-- name: 6b
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     name AS n,
     movie_keyword AS mk,
     keyword AS k
WHERE ci.movie_id = t.id
  AND ci.person_id = n.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND t.production_year > 2000
  AND n.name LIKE '%Smith%'
  AND k.keyword = 'superhero';

-- name: 6c
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     name AS n,
     movie_keyword AS mk,
     keyword AS k
WHERE ci.movie_id = t.id
  AND ci.person_id = n.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND t.production_year > 2008
  AND n.name LIKE '%An%'
  AND k.keyword IN ('superhero', 'marvel-comics', 'based-on-comic');

-- name: 6d
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     name AS n,
     movie_keyword AS mk,
     keyword AS k
WHERE ci.movie_id = t.id
  AND ci.person_id = n.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND t.production_year > 2005
  AND n.name LIKE '%Kumar%'
  AND k.keyword = 'fight';

-- name: 6e
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     name AS n,
     movie_keyword AS mk,
     keyword AS k
WHERE ci.movie_id = t.id
  AND ci.person_id = n.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND n.name LIKE '%a%'
  AND k.keyword = 'sequel';

-- name: 6f
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     name AS n,
     movie_keyword AS mk,
     keyword AS k
WHERE ci.movie_id = t.id
  AND ci.person_id = n.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND t.production_year > 1995
  AND k.keyword IN ('hero', 'martial-arts', 'revenge');

-- Family 7 (3 variants): biographical info of people in linked movies.
-- `t ⋈ ci ⋈ n ⋈ an ⋈ pi ⋈ it3 ⋈ ml ⋈ lt` — 8 joins.
-- name: 7a
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     name AS n,
     aka_name AS an,
     person_info AS pi,
     info_type AS it3,
     movie_link AS ml,
     link_type AS lt
WHERE ci.movie_id = t.id
  AND ci.person_id = n.id
  AND an.person_id = n.id
  AND pi.person_id = n.id
  AND pi.info_type_id = it3.id
  AND ml.movie_id = t.id
  AND ml.link_type_id = lt.id
  AND t.production_year BETWEEN 1980 AND 1995
  AND n.name LIKE '%a%'
  AND n.gender = 'm'
  AND it3.info = 'biography'
  AND lt.link = 'features';

-- name: 7b
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     name AS n,
     aka_name AS an,
     person_info AS pi,
     info_type AS it3,
     movie_link AS ml,
     link_type AS lt
WHERE ci.movie_id = t.id
  AND ci.person_id = n.id
  AND an.person_id = n.id
  AND pi.person_id = n.id
  AND pi.info_type_id = it3.id
  AND ml.movie_id = t.id
  AND ml.link_type_id = lt.id
  AND t.production_year BETWEEN 1995 AND 2010
  AND n.name LIKE '%An%'
  AND n.gender = 'f'
  AND it3.info = 'biography'
  AND lt.link = 'features';

-- name: 7c
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     name AS n,
     aka_name AS an,
     person_info AS pi,
     info_type AS it3,
     movie_link AS ml,
     link_type AS lt
WHERE ci.movie_id = t.id
  AND ci.person_id = n.id
  AND an.person_id = n.id
  AND pi.person_id = n.id
  AND pi.info_type_id = it3.id
  AND ml.movie_id = t.id
  AND ml.link_type_id = lt.id
  AND t.production_year BETWEEN 1980 AND 2010
  AND it3.info = 'biography'
  AND lt.link = 'features';

-- Family 8 (4 variants): actors/actresses in movies of companies from a
-- country.  `t ⋈ ci ⋈ n ⋈ rt ⋈ mc ⋈ cn` — 6 joins.
-- name: 8a
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     name AS n,
     role_type AS rt,
     movie_companies AS mc,
     company_name AS cn
WHERE ci.movie_id = t.id
  AND ci.person_id = n.id
  AND ci.role_id = rt.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND ci.note LIKE '%(voice)%'
  AND rt.role = 'actress'
  AND cn.country_code = '[us]';

-- name: 8b
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     name AS n,
     role_type AS rt,
     movie_companies AS mc,
     company_name AS cn
WHERE ci.movie_id = t.id
  AND ci.person_id = n.id
  AND ci.role_id = rt.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND ci.note LIKE '%(voice%'
  AND rt.role = 'actor'
  AND cn.country_code = '[jp]';

-- name: 8c
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     name AS n,
     role_type AS rt,
     movie_companies AS mc,
     company_name AS cn
WHERE ci.movie_id = t.id
  AND ci.person_id = n.id
  AND ci.role_id = rt.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND n.gender = 'f'
  AND rt.role = 'writer'
  AND cn.country_code = '[us]';

-- name: 8d
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     name AS n,
     role_type AS rt,
     movie_companies AS mc,
     company_name AS cn
WHERE ci.movie_id = t.id
  AND ci.person_id = n.id
  AND ci.role_id = rt.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND rt.role = 'director'
  AND cn.country_code = '[gb]';

-- Family 9 (4 variants): characters played by actresses in US productions.
-- `t ⋈ ci ⋈ n ⋈ chn ⋈ rt ⋈ mc ⋈ cn` — 7 joins.
-- name: 9a
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     name AS n,
     char_name AS chn,
     role_type AS rt,
     movie_companies AS mc,
     company_name AS cn
WHERE ci.movie_id = t.id
  AND ci.person_id = n.id
  AND ci.person_role_id = chn.id
  AND ci.role_id = rt.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND ci.note LIKE '%(voice)%'
  AND n.name LIKE '%An%'
  AND rt.role = 'actress'
  AND cn.country_code = '[us]';

-- name: 9b
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     name AS n,
     char_name AS chn,
     role_type AS rt,
     movie_companies AS mc,
     company_name AS cn
WHERE ci.movie_id = t.id
  AND ci.person_id = n.id
  AND ci.person_role_id = chn.id
  AND ci.role_id = rt.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND n.gender = 'f'
  AND n.name LIKE '%a%'
  AND rt.role = 'actress'
  AND cn.country_code = '[us]';

-- name: 9c
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     name AS n,
     char_name AS chn,
     role_type AS rt,
     movie_companies AS mc,
     company_name AS cn
WHERE ci.movie_id = t.id
  AND ci.person_id = n.id
  AND ci.person_role_id = chn.id
  AND ci.role_id = rt.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND t.production_year > 2005
  AND n.name LIKE '%An%'
  AND rt.role = 'actress'
  AND cn.country_code = '[us]';

-- name: 9d
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     name AS n,
     char_name AS chn,
     role_type AS rt,
     movie_companies AS mc,
     company_name AS cn
WHERE ci.movie_id = t.id
  AND ci.person_id = n.id
  AND ci.person_role_id = chn.id
  AND ci.role_id = rt.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND t.production_year BETWEEN 2000 AND 2010
  AND rt.role = 'actress'
  AND cn.country_code = '[us]';

-- Family 10 (3 variants): uncredited/voice cast in typed companies' movies.
-- `t ⋈ ci ⋈ chn ⋈ rt ⋈ mc ⋈ ct ⋈ cn` — 7 joins.
-- name: 10a
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     char_name AS chn,
     role_type AS rt,
     movie_companies AS mc,
     company_name AS cn,
     company_type AS ct
WHERE ci.movie_id = t.id
  AND ci.person_role_id = chn.id
  AND ci.role_id = rt.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND mc.company_type_id = ct.id
  AND t.production_year > 2005
  AND ci.note LIKE '%(voice)%'
  AND rt.role = 'actress'
  AND cn.country_code = '[ja]';

-- name: 10b
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     char_name AS chn,
     role_type AS rt,
     movie_companies AS mc,
     company_name AS cn,
     company_type AS ct
WHERE ci.movie_id = t.id
  AND ci.person_role_id = chn.id
  AND ci.role_id = rt.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND mc.company_type_id = ct.id
  AND t.production_year > 2000
  AND ci.note LIKE '%(producer)%'
  AND cn.country_code = '[us]';

-- name: 10c
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     char_name AS chn,
     role_type AS rt,
     movie_companies AS mc,
     company_name AS cn,
     company_type AS ct
WHERE ci.movie_id = t.id
  AND ci.person_role_id = chn.id
  AND ci.role_id = rt.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND mc.company_type_id = ct.id
  AND t.production_year > 1990
  AND ci.note LIKE '%(uncredited)%'
  AND ct.kind = 'production companies';

-- Family 11 (4 variants): sequels/links of keyworded company movies.
-- `t ⋈ mc ⋈ cn ⋈ ct ⋈ ml ⋈ lt ⋈ mk ⋈ k` — 9 joins.
-- name: 11a
SELECT COUNT(*)
FROM title AS t,
     movie_companies AS mc,
     company_name AS cn,
     company_type AS ct,
     movie_link AS ml,
     link_type AS lt,
     movie_keyword AS mk,
     keyword AS k
WHERE mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND mc.company_type_id = ct.id
  AND ml.movie_id = t.id
  AND ml.link_type_id = lt.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND t.production_year BETWEEN 1990 AND 2000
  AND cn.country_code IS NOT NULL
  AND ct.kind = 'production companies'
  AND lt.link LIKE '%follow%'
  AND k.keyword = 'sequel';

-- name: 11b
SELECT COUNT(*)
FROM title AS t,
     movie_companies AS mc,
     company_name AS cn,
     company_type AS ct,
     movie_link AS ml,
     link_type AS lt,
     movie_keyword AS mk,
     keyword AS k
WHERE mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND mc.company_type_id = ct.id
  AND ml.movie_id = t.id
  AND ml.link_type_id = lt.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND t.production_year > 2000
  AND mc.note IS NULL
  AND cn.country_code IS NOT NULL
  AND lt.link LIKE '%follow%'
  AND k.keyword = 'sequel';

-- name: 11c
SELECT COUNT(*)
FROM title AS t,
     movie_companies AS mc,
     company_name AS cn,
     company_type AS ct,
     movie_link AS ml,
     link_type AS lt,
     movie_keyword AS mk,
     keyword AS k
WHERE mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND mc.company_type_id = ct.id
  AND ml.movie_id = t.id
  AND ml.link_type_id = lt.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND cn.country_code IS NOT NULL
  AND lt.link IN ('references', 'referenced in')
  AND k.keyword = 'sequel';

-- name: 11d
SELECT COUNT(*)
FROM title AS t,
     movie_companies AS mc,
     company_name AS cn,
     company_type AS ct,
     movie_link AS ml,
     link_type AS lt,
     movie_keyword AS mk,
     keyword AS k
WHERE mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND mc.company_type_id = ct.id
  AND ml.movie_id = t.id
  AND ml.link_type_id = lt.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND cn.country_code IS NOT NULL
  AND lt.link IN ('remake of', 'remade as')
  AND k.keyword = 'sequel';

-- Family 12 (3 variants): ratings and genres of company movies.
-- `t ⋈ mc ⋈ cn ⋈ ct ⋈ mi ⋈ it ⋈ miidx ⋈ it2` — 9 joins.
-- name: 12a
SELECT COUNT(*)
FROM title AS t,
     movie_companies AS mc,
     company_name AS cn,
     company_type AS ct,
     movie_info AS mi,
     info_type AS it,
     movie_info_idx AS miidx,
     info_type AS it2
WHERE mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND mc.company_type_id = ct.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND miidx.movie_id = t.id
  AND miidx.info_type_id = it2.id
  AND t.production_year >= 2005
  AND cn.country_code = '[us]'
  AND ct.kind = 'production companies'
  AND mi.info IN ('Drama', 'Horror')
  AND it.info = 'genres'
  AND it2.info = 'rating';

-- name: 12b
SELECT COUNT(*)
FROM title AS t,
     movie_companies AS mc,
     company_name AS cn,
     company_type AS ct,
     movie_info AS mi,
     info_type AS it,
     movie_info_idx AS miidx,
     info_type AS it2
WHERE mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND mc.company_type_id = ct.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND miidx.movie_id = t.id
  AND miidx.info_type_id = it2.id
  AND cn.country_code = '[us]'
  AND mi.info IN ('Drama', 'Horror', 'Western', 'Family')
  AND it.info = 'genres'
  AND it2.info = 'rating';

-- name: 12c
SELECT COUNT(*)
FROM title AS t,
     movie_companies AS mc,
     company_name AS cn,
     company_type AS ct,
     movie_info AS mi,
     info_type AS it,
     movie_info_idx AS miidx,
     info_type AS it2
WHERE mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND mc.company_type_id = ct.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND miidx.movie_id = t.id
  AND miidx.info_type_id = it2.id
  AND t.production_year BETWEEN 2000 AND 2010
  AND cn.country_code = '[us]'
  AND ct.kind = 'distributors'
  AND it.info = 'genres'
  AND it2.info = 'rating';

-- Family 13 (4 variants): the paper's example query — ratings and release
-- dates of movies produced by companies of one country.
-- `t ⋈ kt ⋈ mc ⋈ cn ⋈ ct ⋈ mi ⋈ it ⋈ miidx ⋈ it2` — 10 joins, 9 relations.
-- name: 13a
SELECT COUNT(*)
FROM title AS t,
     kind_type AS kt,
     movie_companies AS mc,
     company_name AS cn,
     company_type AS ct,
     movie_info AS mi,
     info_type AS it,
     movie_info_idx AS miidx,
     info_type AS it2
WHERE t.kind_id = kt.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND mc.company_type_id = ct.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND miidx.movie_id = t.id
  AND miidx.info_type_id = it2.id
  AND kt.kind = 'movie'
  AND cn.country_code = '[de]'
  AND ct.kind = 'production companies'
  AND it.info = 'release dates'
  AND it2.info = 'rating';

-- name: 13b
SELECT COUNT(*)
FROM title AS t,
     kind_type AS kt,
     movie_companies AS mc,
     company_name AS cn,
     company_type AS ct,
     movie_info AS mi,
     info_type AS it,
     movie_info_idx AS miidx,
     info_type AS it2
WHERE t.kind_id = kt.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND mc.company_type_id = ct.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND miidx.movie_id = t.id
  AND miidx.info_type_id = it2.id
  AND kt.kind = 'movie'
  AND cn.country_code = '[us]'
  AND ct.kind = 'production companies'
  AND it.info = 'release dates'
  AND it2.info = 'rating';

-- name: 13c
SELECT COUNT(*)
FROM title AS t,
     kind_type AS kt,
     movie_companies AS mc,
     company_name AS cn,
     company_type AS ct,
     movie_info AS mi,
     info_type AS it,
     movie_info_idx AS miidx,
     info_type AS it2
WHERE t.kind_id = kt.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND mc.company_type_id = ct.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND miidx.movie_id = t.id
  AND miidx.info_type_id = it2.id
  AND kt.kind = 'movie'
  AND cn.country_code = '[gb]'
  AND ct.kind = 'production companies'
  AND it.info = 'release dates'
  AND it2.info = 'rating';

-- name: 13d
SELECT COUNT(*)
FROM title AS t,
     kind_type AS kt,
     movie_companies AS mc,
     company_name AS cn,
     company_type AS ct,
     movie_info AS mi,
     info_type AS it,
     movie_info_idx AS miidx,
     info_type AS it2
WHERE t.kind_id = kt.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND mc.company_type_id = ct.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND miidx.movie_id = t.id
  AND miidx.info_type_id = it2.id
  AND kt.kind = 'movie'
  AND cn.country_code = '[fr]'
  AND ct.kind = 'production companies'
  AND it.info = 'release dates'
  AND it2.info = 'rating';

-- Family 14 (3 variants): ratings of horror/thriller movies with keywords.
-- `t ⋈ kt ⋈ mi ⋈ it ⋈ miidx ⋈ it2 ⋈ mk ⋈ k` — 8 joins.
-- name: 14a
SELECT COUNT(*)
FROM title AS t,
     kind_type AS kt,
     movie_info AS mi,
     info_type AS it,
     movie_info_idx AS miidx,
     info_type AS it2,
     movie_keyword AS mk,
     keyword AS k
WHERE t.kind_id = kt.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND miidx.movie_id = t.id
  AND miidx.info_type_id = it2.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND t.production_year > 2005
  AND kt.kind = 'movie'
  AND it.info = 'countries'
  AND it2.info = 'rating'
  AND k.keyword IN ('murder', 'blood', 'gore');

-- name: 14b
SELECT COUNT(*)
FROM title AS t,
     kind_type AS kt,
     movie_info AS mi,
     info_type AS it,
     movie_info_idx AS miidx,
     info_type AS it2,
     movie_keyword AS mk,
     keyword AS k
WHERE t.kind_id = kt.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND miidx.movie_id = t.id
  AND miidx.info_type_id = it2.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND kt.kind = 'movie'
  AND mi.info IN ('USA', 'UK')
  AND it.info = 'countries'
  AND it2.info = 'rating'
  AND k.keyword IN ('murder', 'blood', 'gore', 'violence');

-- name: 14c
SELECT COUNT(*)
FROM title AS t,
     kind_type AS kt,
     movie_info AS mi,
     info_type AS it,
     movie_info_idx AS miidx,
     info_type AS it2,
     movie_keyword AS mk,
     keyword AS k
WHERE t.kind_id = kt.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND miidx.movie_id = t.id
  AND miidx.info_type_id = it2.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND t.production_year > 1990
  AND kt.kind = 'movie'
  AND it.info = 'countries'
  AND it2.info = 'rating'
  AND k.keyword = 'murder';

-- Family 15 (4 variants): international release info of keyworded US movies.
-- `t ⋈ mc ⋈ cn ⋈ ct ⋈ mi ⋈ it ⋈ mk ⋈ k ⋈ at` — 10 joins.
-- name: 15a
SELECT COUNT(*)
FROM title AS t,
     movie_companies AS mc,
     company_name AS cn,
     company_type AS ct,
     movie_info AS mi,
     info_type AS it,
     movie_keyword AS mk,
     keyword AS k,
     aka_title AS at
WHERE mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND mc.company_type_id = ct.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND at.movie_id = t.id
  AND t.production_year > 2000
  AND cn.country_code = '[us]'
  AND mi.info LIKE 'USA:%'
  AND it.info = 'release dates';

-- name: 15b
SELECT COUNT(*)
FROM title AS t,
     movie_companies AS mc,
     company_name AS cn,
     company_type AS ct,
     movie_info AS mi,
     info_type AS it,
     movie_keyword AS mk,
     keyword AS k,
     aka_title AS at
WHERE mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND mc.company_type_id = ct.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND at.movie_id = t.id
  AND mc.note LIKE '%(presents)%'
  AND cn.country_code = '[us]'
  AND mi.info LIKE 'USA:% 2005'
  AND it.info = 'release dates';

-- name: 15c
SELECT COUNT(*)
FROM title AS t,
     movie_companies AS mc,
     company_name AS cn,
     company_type AS ct,
     movie_info AS mi,
     info_type AS it,
     movie_keyword AS mk,
     keyword AS k,
     aka_title AS at
WHERE mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND mc.company_type_id = ct.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND at.movie_id = t.id
  AND t.production_year > 1990
  AND cn.country_code = '[us]'
  AND it.info = 'release dates'
  AND k.keyword = 'character-name-in-title';

-- name: 15d
SELECT COUNT(*)
FROM title AS t,
     movie_companies AS mc,
     company_name AS cn,
     company_type AS ct,
     movie_info AS mi,
     info_type AS it,
     movie_keyword AS mk,
     keyword AS k,
     aka_title AS at
WHERE mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND mc.company_type_id = ct.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND at.movie_id = t.id
  AND t.production_year BETWEEN 1950 AND 2000
  AND cn.country_code = '[us]'
  AND it.info = 'release dates'
  AND k.keyword = 'second-part';

-- Family 16 (4 variants): alternative names of cast in keyworded company
-- movies.  `t ⋈ ci ⋈ n ⋈ an ⋈ mk ⋈ k ⋈ mc ⋈ cn` — 9 joins.
-- name: 16a
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     name AS n,
     aka_name AS an,
     movie_keyword AS mk,
     keyword AS k,
     movie_companies AS mc,
     company_name AS cn
WHERE ci.movie_id = t.id
  AND ci.person_id = n.id
  AND an.person_id = n.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND t.production_year BETWEEN 2005 AND 2010
  AND k.keyword = 'character-name-in-title'
  AND cn.country_code = '[us]';

-- name: 16b
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     name AS n,
     aka_name AS an,
     movie_keyword AS mk,
     keyword AS k,
     movie_companies AS mc,
     company_name AS cn
WHERE ci.movie_id = t.id
  AND ci.person_id = n.id
  AND an.person_id = n.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND k.keyword = 'character-name-in-title'
  AND cn.country_code = '[us]';

-- name: 16c
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     name AS n,
     aka_name AS an,
     movie_keyword AS mk,
     keyword AS k,
     movie_companies AS mc,
     company_name AS cn
WHERE ci.movie_id = t.id
  AND ci.person_id = n.id
  AND an.person_id = n.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND t.production_year BETWEEN 1990 AND 2000
  AND k.keyword = 'character-name-in-title';

-- name: 16d
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     name AS n,
     aka_name AS an,
     movie_keyword AS mk,
     keyword AS k,
     movie_companies AS mc,
     company_name AS cn
WHERE ci.movie_id = t.id
  AND ci.person_id = n.id
  AND an.person_id = n.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND t.production_year > 1950
  AND k.keyword = 'character-name-in-title';

-- Family 17 (6 variants): people in keyworded US-company movies, by name
-- pattern.  `t ⋈ ci ⋈ n ⋈ mk ⋈ k ⋈ mc ⋈ cn` — 8 joins.
-- name: 17a
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     name AS n,
     movie_keyword AS mk,
     keyword AS k,
     movie_companies AS mc,
     company_name AS cn
WHERE ci.movie_id = t.id
  AND ci.person_id = n.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND n.name LIKE 'B%'
  AND k.keyword = 'character-name-in-title'
  AND cn.country_code = '[us]';

-- name: 17b
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     name AS n,
     movie_keyword AS mk,
     keyword AS k,
     movie_companies AS mc,
     company_name AS cn
WHERE ci.movie_id = t.id
  AND ci.person_id = n.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND n.name LIKE 'Z%'
  AND k.keyword = 'character-name-in-title';

-- name: 17c
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     name AS n,
     movie_keyword AS mk,
     keyword AS k,
     movie_companies AS mc,
     company_name AS cn
WHERE ci.movie_id = t.id
  AND ci.person_id = n.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND n.name LIKE 'X%'
  AND k.keyword = 'character-name-in-title';

-- name: 17d
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     name AS n,
     movie_keyword AS mk,
     keyword AS k,
     movie_companies AS mc,
     company_name AS cn
WHERE ci.movie_id = t.id
  AND ci.person_id = n.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND n.name LIKE '%Smith%'
  AND k.keyword = 'character-name-in-title'
  AND cn.country_code = '[us]';

-- name: 17e
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     name AS n,
     movie_keyword AS mk,
     keyword AS k,
     movie_companies AS mc,
     company_name AS cn
WHERE ci.movie_id = t.id
  AND ci.person_id = n.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND n.name LIKE '%a%'
  AND k.keyword = 'character-name-in-title';

-- name: 17f
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     name AS n,
     movie_keyword AS mk,
     keyword AS k,
     movie_companies AS mc,
     company_name AS cn
WHERE ci.movie_id = t.id
  AND ci.person_id = n.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND n.name LIKE 'K%'
  AND k.keyword = 'character-name-in-title'
  AND cn.country_code = '[de]';

-- Family 18 (3 variants): budgets/ratings of movies by gendered writers.
-- `t ⋈ ci ⋈ n ⋈ mi ⋈ it ⋈ miidx ⋈ it2` — 7 joins.
-- name: 18a
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     name AS n,
     movie_info AS mi,
     info_type AS it,
     movie_info_idx AS miidx,
     info_type AS it2
WHERE ci.movie_id = t.id
  AND ci.person_id = n.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND miidx.movie_id = t.id
  AND miidx.info_type_id = it2.id
  AND n.gender = 'm'
  AND n.name LIKE '%Tim%'
  AND it.info = 'budget'
  AND it2.info = 'votes';

-- name: 18b
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     name AS n,
     movie_info AS mi,
     info_type AS it,
     movie_info_idx AS miidx,
     info_type AS it2
WHERE ci.movie_id = t.id
  AND ci.person_id = n.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND miidx.movie_id = t.id
  AND miidx.info_type_id = it2.id
  AND n.gender = 'f'
  AND n.name LIKE '%An%'
  AND it.info = 'budget'
  AND it2.info = 'votes';

-- name: 18c
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     name AS n,
     movie_info AS mi,
     info_type AS it,
     movie_info_idx AS miidx,
     info_type AS it2
WHERE ci.movie_id = t.id
  AND ci.person_id = n.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND miidx.movie_id = t.id
  AND miidx.info_type_id = it2.id
  AND n.name LIKE '%.%'
  AND it.info = 'budget'
  AND it2.info = 'votes';

-- Family 19 (4 variants): voice actresses of US movies with release info.
-- `t ⋈ ci ⋈ n ⋈ an ⋈ chn ⋈ rt ⋈ mi ⋈ it ⋈ mc ⋈ cn` — 11 joins.
-- name: 19a
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     name AS n,
     aka_name AS an,
     char_name AS chn,
     role_type AS rt,
     movie_info AS mi,
     info_type AS it,
     movie_companies AS mc,
     company_name AS cn
WHERE ci.movie_id = t.id
  AND ci.person_id = n.id
  AND an.person_id = n.id
  AND ci.person_role_id = chn.id
  AND ci.role_id = rt.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND t.production_year BETWEEN 2000 AND 2010
  AND ci.note LIKE '%(voice)%'
  AND n.gender = 'f'
  AND rt.role = 'actress'
  AND it.info = 'release dates'
  AND cn.country_code = '[us]';

-- name: 19b
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     name AS n,
     aka_name AS an,
     char_name AS chn,
     role_type AS rt,
     movie_info AS mi,
     info_type AS it,
     movie_companies AS mc,
     company_name AS cn
WHERE ci.movie_id = t.id
  AND ci.person_id = n.id
  AND an.person_id = n.id
  AND ci.person_role_id = chn.id
  AND ci.role_id = rt.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND t.production_year > 2005
  AND ci.note LIKE '%(voice%'
  AND n.gender = 'f'
  AND rt.role = 'actress'
  AND it.info = 'release dates'
  AND cn.country_code = '[us]';

-- name: 19c
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     name AS n,
     aka_name AS an,
     char_name AS chn,
     role_type AS rt,
     movie_info AS mi,
     info_type AS it,
     movie_companies AS mc,
     company_name AS cn
WHERE ci.movie_id = t.id
  AND ci.person_id = n.id
  AND an.person_id = n.id
  AND ci.person_role_id = chn.id
  AND ci.role_id = rt.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND n.gender = 'f'
  AND n.name LIKE '%An%'
  AND rt.role = 'actress'
  AND it.info = 'release dates'
  AND cn.country_code = '[us]';

-- name: 19d
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     name AS n,
     aka_name AS an,
     char_name AS chn,
     role_type AS rt,
     movie_info AS mi,
     info_type AS it,
     movie_companies AS mc,
     company_name AS cn
WHERE ci.movie_id = t.id
  AND ci.person_id = n.id
  AND an.person_id = n.id
  AND ci.person_role_id = chn.id
  AND ci.role_id = rt.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND t.production_year > 1990
  AND n.gender = 'f'
  AND rt.role = 'actress'
  AND it.info = 'release dates'
  AND cn.country_code = '[us]';

-- Family 20 (3 variants): complete-cast hero movies with character names.
-- `t ⋈ kt ⋈ ci ⋈ chn ⋈ n ⋈ cc ⋈ cct1 ⋈ cct2 ⋈ mk ⋈ k` — 11 joins.
-- name: 20a
SELECT COUNT(*)
FROM title AS t,
     kind_type AS kt,
     cast_info AS ci,
     name AS n,
     char_name AS chn,
     complete_cast AS cc,
     comp_cast_type AS cct1,
     comp_cast_type AS cct2,
     movie_keyword AS mk,
     keyword AS k
WHERE t.kind_id = kt.id
  AND ci.movie_id = t.id
  AND ci.person_id = n.id
  AND ci.person_role_id = chn.id
  AND cc.movie_id = t.id
  AND cc.subject_id = cct1.id
  AND cc.status_id = cct2.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND t.production_year > 2000
  AND kt.kind = 'movie'
  AND cct1.kind = 'cast'
  AND cct2.kind LIKE 'complete%'
  AND k.keyword IN ('superhero', 'marvel-comics', 'based-on-comic');

-- name: 20b
SELECT COUNT(*)
FROM title AS t,
     kind_type AS kt,
     cast_info AS ci,
     name AS n,
     char_name AS chn,
     complete_cast AS cc,
     comp_cast_type AS cct1,
     comp_cast_type AS cct2,
     movie_keyword AS mk,
     keyword AS k
WHERE t.kind_id = kt.id
  AND ci.movie_id = t.id
  AND ci.person_id = n.id
  AND ci.person_role_id = chn.id
  AND cc.movie_id = t.id
  AND cc.subject_id = cct1.id
  AND cc.status_id = cct2.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND kt.kind = 'movie'
  AND chn.name LIKE '%man%'
  AND cct1.kind = 'cast'
  AND cct2.kind LIKE 'complete%'
  AND k.keyword = 'superhero';

-- name: 20c
SELECT COUNT(*)
FROM title AS t,
     kind_type AS kt,
     cast_info AS ci,
     name AS n,
     char_name AS chn,
     complete_cast AS cc,
     comp_cast_type AS cct1,
     comp_cast_type AS cct2,
     movie_keyword AS mk,
     keyword AS k
WHERE t.kind_id = kt.id
  AND ci.movie_id = t.id
  AND ci.person_id = n.id
  AND ci.person_role_id = chn.id
  AND cc.movie_id = t.id
  AND cc.subject_id = cct1.id
  AND cc.status_id = cct2.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND t.production_year > 1990
  AND kt.kind = 'movie'
  AND cct1.kind = 'cast'
  AND cct2.kind LIKE 'complete%'
  AND k.keyword IN ('hero', 'fight');

-- Family 21 (3 variants): linked company movies with country info.
-- `t ⋈ kt ⋈ mc ⋈ cn ⋈ ct ⋈ ml ⋈ lt ⋈ mi ⋈ it` — 10 joins.
-- name: 21a
SELECT COUNT(*)
FROM title AS t,
     kind_type AS kt,
     movie_companies AS mc,
     company_name AS cn,
     company_type AS ct,
     movie_link AS ml,
     link_type AS lt,
     movie_info AS mi,
     info_type AS it
WHERE t.kind_id = kt.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND mc.company_type_id = ct.id
  AND ml.movie_id = t.id
  AND ml.link_type_id = lt.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND kt.kind = 'movie'
  AND mc.note IS NULL
  AND lt.link LIKE '%follow%'
  AND mi.info IN ('Germany', 'Sweden')
  AND it.info = 'countries';

-- name: 21b
SELECT COUNT(*)
FROM title AS t,
     kind_type AS kt,
     movie_companies AS mc,
     company_name AS cn,
     company_type AS ct,
     movie_link AS ml,
     link_type AS lt,
     movie_info AS mi,
     info_type AS it
WHERE t.kind_id = kt.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND mc.company_type_id = ct.id
  AND ml.movie_id = t.id
  AND ml.link_type_id = lt.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND kt.kind = 'movie'
  AND mc.note IS NULL
  AND lt.link LIKE '%follow%'
  AND mi.info IN ('USA', 'UK', 'Canada')
  AND it.info = 'countries';

-- name: 21c
SELECT COUNT(*)
FROM title AS t,
     kind_type AS kt,
     movie_companies AS mc,
     company_name AS cn,
     company_type AS ct,
     movie_link AS ml,
     link_type AS lt,
     movie_info AS mi,
     info_type AS it
WHERE t.kind_id = kt.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND mc.company_type_id = ct.id
  AND ml.movie_id = t.id
  AND ml.link_type_id = lt.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND t.production_year > 1980
  AND kt.kind = 'movie'
  AND mc.note IS NULL
  AND lt.link LIKE '%follow%'
  AND it.info = 'countries';

-- Family 22 (4 variants): western-country violent movies with companies and
-- ratings.  `t ⋈ kt ⋈ mc ⋈ cn ⋈ ct ⋈ mi ⋈ it ⋈ miidx ⋈ it2 ⋈ mk ⋈ k` — 12 joins.
-- name: 22a
SELECT COUNT(*)
FROM title AS t,
     kind_type AS kt,
     movie_companies AS mc,
     company_name AS cn,
     company_type AS ct,
     movie_info AS mi,
     info_type AS it,
     movie_info_idx AS miidx,
     info_type AS it2,
     movie_keyword AS mk,
     keyword AS k
WHERE t.kind_id = kt.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND mc.company_type_id = ct.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND miidx.movie_id = t.id
  AND miidx.info_type_id = it2.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND t.production_year > 2008
  AND kt.kind = 'movie'
  AND cn.country_code = '[de]'
  AND it.info = 'countries'
  AND it2.info = 'rating'
  AND k.keyword IN ('murder', 'blood', 'violence');

-- name: 22b
SELECT COUNT(*)
FROM title AS t,
     kind_type AS kt,
     movie_companies AS mc,
     company_name AS cn,
     company_type AS ct,
     movie_info AS mi,
     info_type AS it,
     movie_info_idx AS miidx,
     info_type AS it2,
     movie_keyword AS mk,
     keyword AS k
WHERE t.kind_id = kt.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND mc.company_type_id = ct.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND miidx.movie_id = t.id
  AND miidx.info_type_id = it2.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND t.production_year > 2005
  AND cn.country_code = '[us]'
  AND it.info = 'countries'
  AND it2.info = 'rating'
  AND k.keyword IN ('murder', 'blood', 'violence');

-- name: 22c
SELECT COUNT(*)
FROM title AS t,
     kind_type AS kt,
     movie_companies AS mc,
     company_name AS cn,
     company_type AS ct,
     movie_info AS mi,
     info_type AS it,
     movie_info_idx AS miidx,
     info_type AS it2,
     movie_keyword AS mk,
     keyword AS k
WHERE t.kind_id = kt.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND mc.company_type_id = ct.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND miidx.movie_id = t.id
  AND miidx.info_type_id = it2.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND t.production_year > 2000
  AND kt.kind IN ('movie', 'episode')
  AND it.info = 'countries'
  AND it2.info = 'rating'
  AND k.keyword IN ('murder', 'blood', 'violence');

-- name: 22d
SELECT COUNT(*)
FROM title AS t,
     kind_type AS kt,
     movie_companies AS mc,
     company_name AS cn,
     company_type AS ct,
     movie_info AS mi,
     info_type AS it,
     movie_info_idx AS miidx,
     info_type AS it2,
     movie_keyword AS mk,
     keyword AS k
WHERE t.kind_id = kt.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND mc.company_type_id = ct.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND miidx.movie_id = t.id
  AND miidx.info_type_id = it2.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND t.production_year > 1990
  AND it.info = 'countries'
  AND it2.info = 'rating'
  AND k.keyword IN ('murder', 'blood', 'violence');

-- Family 23 (3 variants): complete-cast movies of US companies with a kind
-- and keyword.  `t ⋈ kt ⋈ mi ⋈ it ⋈ cc ⋈ cct1 ⋈ cct2 ⋈ mk ⋈ k ⋈ mc ⋈ cn ⋈ ct` — 13 joins.
-- name: 23a
SELECT COUNT(*)
FROM title AS t,
     kind_type AS kt,
     movie_info AS mi,
     info_type AS it,
     complete_cast AS cc,
     comp_cast_type AS cct1,
     comp_cast_type AS cct2,
     movie_keyword AS mk,
     keyword AS k,
     movie_companies AS mc,
     company_name AS cn,
     company_type AS ct
WHERE t.kind_id = kt.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND cc.movie_id = t.id
  AND cc.subject_id = cct1.id
  AND cc.status_id = cct2.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND mc.company_type_id = ct.id
  AND t.production_year > 2000
  AND kt.kind = 'movie'
  AND mi.info LIKE 'USA:%'
  AND it.info = 'release dates'
  AND cct2.kind LIKE 'complete%'
  AND cn.country_code = '[us]';

-- name: 23b
SELECT COUNT(*)
FROM title AS t,
     kind_type AS kt,
     movie_info AS mi,
     info_type AS it,
     complete_cast AS cc,
     comp_cast_type AS cct1,
     comp_cast_type AS cct2,
     movie_keyword AS mk,
     keyword AS k,
     movie_companies AS mc,
     company_name AS cn,
     company_type AS ct
WHERE t.kind_id = kt.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND cc.movie_id = t.id
  AND cc.subject_id = cct1.id
  AND cc.status_id = cct2.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND mc.company_type_id = ct.id
  AND kt.kind = 'movie'
  AND it.info = 'release dates'
  AND cct2.kind LIKE 'complete%'
  AND k.keyword = 'sequel'
  AND cn.country_code = '[us]';

-- name: 23c
SELECT COUNT(*)
FROM title AS t,
     kind_type AS kt,
     movie_info AS mi,
     info_type AS it,
     complete_cast AS cc,
     comp_cast_type AS cct1,
     comp_cast_type AS cct2,
     movie_keyword AS mk,
     keyword AS k,
     movie_companies AS mc,
     company_name AS cn,
     company_type AS ct
WHERE t.kind_id = kt.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND cc.movie_id = t.id
  AND cc.subject_id = cct1.id
  AND cc.status_id = cct2.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND mc.company_type_id = ct.id
  AND t.production_year > 1990
  AND kt.kind = 'movie'
  AND it.info = 'release dates'
  AND cct2.kind LIKE 'complete%'
  AND cn.country_code = '[us]';

-- Family 24 (2 variants): voice actresses in keyworded US movies with
-- character names.  `t ⋈ ci ⋈ n ⋈ rt ⋈ chn ⋈ mi ⋈ it ⋈ mk ⋈ k ⋈ mc ⋈ cn` — 12 joins.
-- name: 24a
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     name AS n,
     role_type AS rt,
     char_name AS chn,
     movie_info AS mi,
     info_type AS it,
     movie_keyword AS mk,
     keyword AS k,
     movie_companies AS mc,
     company_name AS cn
WHERE ci.movie_id = t.id
  AND ci.person_id = n.id
  AND ci.role_id = rt.id
  AND ci.person_role_id = chn.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND t.production_year > 2005
  AND ci.note LIKE '%(voice)%'
  AND n.gender = 'f'
  AND rt.role = 'actress'
  AND it.info = 'release dates'
  AND k.keyword = 'character-name-in-title'
  AND cn.country_code = '[us]';

-- name: 24b
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     name AS n,
     role_type AS rt,
     char_name AS chn,
     movie_info AS mi,
     info_type AS it,
     movie_keyword AS mk,
     keyword AS k,
     movie_companies AS mc,
     company_name AS cn
WHERE ci.movie_id = t.id
  AND ci.person_id = n.id
  AND ci.role_id = rt.id
  AND ci.person_role_id = chn.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND t.production_year > 1990
  AND n.gender = 'f'
  AND rt.role = 'actress'
  AND it.info = 'release dates'
  AND k.keyword = 'character-name-in-title'
  AND cn.country_code = '[us]';

-- Family 25 (3 variants): male writers of violent movies with ratings.
-- `t ⋈ ci ⋈ n ⋈ rt ⋈ mi ⋈ it ⋈ miidx ⋈ it2 ⋈ mk ⋈ k` — 11 joins.
-- name: 25a
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     name AS n,
     role_type AS rt,
     movie_info AS mi,
     info_type AS it,
     movie_info_idx AS miidx,
     info_type AS it2,
     movie_keyword AS mk,
     keyword AS k
WHERE ci.movie_id = t.id
  AND ci.person_id = n.id
  AND ci.role_id = rt.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND miidx.movie_id = t.id
  AND miidx.info_type_id = it2.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND n.gender = 'm'
  AND rt.role = 'writer'
  AND mi.info = 'Horror'
  AND it.info = 'genres'
  AND it2.info = 'votes'
  AND k.keyword IN ('murder', 'blood', 'gore');

-- name: 25b
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     name AS n,
     role_type AS rt,
     movie_info AS mi,
     info_type AS it,
     movie_info_idx AS miidx,
     info_type AS it2,
     movie_keyword AS mk,
     keyword AS k
WHERE ci.movie_id = t.id
  AND ci.person_id = n.id
  AND ci.role_id = rt.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND miidx.movie_id = t.id
  AND miidx.info_type_id = it2.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND n.gender = 'm'
  AND rt.role = 'writer'
  AND mi.info IN ('Horror', 'Thriller')
  AND it.info = 'genres'
  AND it2.info = 'votes';

-- name: 25c
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     name AS n,
     role_type AS rt,
     movie_info AS mi,
     info_type AS it,
     movie_info_idx AS miidx,
     info_type AS it2,
     movie_keyword AS mk,
     keyword AS k
WHERE ci.movie_id = t.id
  AND ci.person_id = n.id
  AND ci.role_id = rt.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND miidx.movie_id = t.id
  AND miidx.info_type_id = it2.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND n.gender = 'm'
  AND rt.role = 'writer'
  AND mi.info IN ('Horror', 'Action', 'Thriller', 'Crime')
  AND it.info = 'genres'
  AND it2.info = 'votes'
  AND k.keyword IN ('murder', 'violence', 'blood', 'revenge');

-- Family 26 (3 variants): complete-cast superhero movies with ratings and
-- characters.  `t ⋈ kt ⋈ ci ⋈ chn ⋈ n ⋈ cc ⋈ cct1 ⋈ cct2 ⋈ miidx ⋈ it2 ⋈ mk ⋈ k` — 13 joins.
-- name: 26a
SELECT COUNT(*)
FROM title AS t,
     kind_type AS kt,
     cast_info AS ci,
     name AS n,
     char_name AS chn,
     complete_cast AS cc,
     comp_cast_type AS cct1,
     comp_cast_type AS cct2,
     movie_info_idx AS miidx,
     info_type AS it2,
     movie_keyword AS mk,
     keyword AS k
WHERE t.kind_id = kt.id
  AND ci.movie_id = t.id
  AND ci.person_id = n.id
  AND ci.person_role_id = chn.id
  AND cc.movie_id = t.id
  AND cc.subject_id = cct1.id
  AND cc.status_id = cct2.id
  AND miidx.movie_id = t.id
  AND miidx.info_type_id = it2.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND t.production_year > 2005
  AND kt.kind = 'movie'
  AND cct1.kind = 'cast'
  AND cct2.kind LIKE 'complete%'
  AND it2.info = 'rating'
  AND k.keyword IN ('superhero', 'marvel-comics', 'based-on-comic');

-- name: 26b
SELECT COUNT(*)
FROM title AS t,
     kind_type AS kt,
     cast_info AS ci,
     name AS n,
     char_name AS chn,
     complete_cast AS cc,
     comp_cast_type AS cct1,
     comp_cast_type AS cct2,
     movie_info_idx AS miidx,
     info_type AS it2,
     movie_keyword AS mk,
     keyword AS k
WHERE t.kind_id = kt.id
  AND ci.movie_id = t.id
  AND ci.person_id = n.id
  AND ci.person_role_id = chn.id
  AND cc.movie_id = t.id
  AND cc.subject_id = cct1.id
  AND cc.status_id = cct2.id
  AND miidx.movie_id = t.id
  AND miidx.info_type_id = it2.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND kt.kind = 'movie'
  AND chn.name LIKE '%man%'
  AND cct1.kind = 'cast'
  AND cct2.kind LIKE 'complete%'
  AND it2.info = 'rating'
  AND k.keyword = 'superhero';

-- name: 26c
SELECT COUNT(*)
FROM title AS t,
     kind_type AS kt,
     cast_info AS ci,
     name AS n,
     char_name AS chn,
     complete_cast AS cc,
     comp_cast_type AS cct1,
     comp_cast_type AS cct2,
     movie_info_idx AS miidx,
     info_type AS it2,
     movie_keyword AS mk,
     keyword AS k
WHERE t.kind_id = kt.id
  AND ci.movie_id = t.id
  AND ci.person_id = n.id
  AND ci.person_role_id = chn.id
  AND cc.movie_id = t.id
  AND cc.subject_id = cct1.id
  AND cc.status_id = cct2.id
  AND miidx.movie_id = t.id
  AND miidx.info_type_id = it2.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND t.production_year > 2000
  AND kt.kind = 'movie'
  AND cct1.kind = 'cast'
  AND cct2.kind LIKE 'complete%'
  AND it2.info = 'rating';

-- Family 27 (3 variants): complete-cast linked co-productions with keywords.
-- `t ⋈ mc ⋈ cn ⋈ ct ⋈ ml ⋈ lt ⋈ mi ⋈ it ⋈ cc ⋈ cct1 ⋈ cct2 ⋈ mk ⋈ k` — 14 joins.
-- name: 27a
SELECT COUNT(*)
FROM title AS t,
     movie_companies AS mc,
     company_name AS cn,
     company_type AS ct,
     movie_link AS ml,
     link_type AS lt,
     movie_info AS mi,
     info_type AS it,
     complete_cast AS cc,
     comp_cast_type AS cct1,
     comp_cast_type AS cct2,
     movie_keyword AS mk,
     keyword AS k
WHERE mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND mc.company_type_id = ct.id
  AND ml.movie_id = t.id
  AND ml.link_type_id = lt.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND cc.movie_id = t.id
  AND cc.subject_id = cct1.id
  AND cc.status_id = cct2.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND t.production_year > 1950
  AND mc.note IS NULL
  AND lt.link LIKE '%follow%'
  AND mi.info IN ('Germany', 'Sweden')
  AND it.info = 'countries'
  AND cct1.kind = 'cast'
  AND cct2.kind = 'complete'
  AND k.keyword = 'sequel';

-- name: 27b
SELECT COUNT(*)
FROM title AS t,
     movie_companies AS mc,
     company_name AS cn,
     company_type AS ct,
     movie_link AS ml,
     link_type AS lt,
     movie_info AS mi,
     info_type AS it,
     complete_cast AS cc,
     comp_cast_type AS cct1,
     comp_cast_type AS cct2,
     movie_keyword AS mk,
     keyword AS k
WHERE mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND mc.company_type_id = ct.id
  AND ml.movie_id = t.id
  AND ml.link_type_id = lt.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND cc.movie_id = t.id
  AND cc.subject_id = cct1.id
  AND cc.status_id = cct2.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND t.production_year > 2000
  AND mc.note IS NULL
  AND lt.link LIKE '%follow%'
  AND mi.info IN ('USA', 'UK')
  AND it.info = 'countries'
  AND cct1.kind = 'cast'
  AND cct2.kind = 'complete'
  AND k.keyword = 'sequel';

-- name: 27c
SELECT COUNT(*)
FROM title AS t,
     movie_companies AS mc,
     company_name AS cn,
     company_type AS ct,
     movie_link AS ml,
     link_type AS lt,
     movie_info AS mi,
     info_type AS it,
     complete_cast AS cc,
     comp_cast_type AS cct1,
     comp_cast_type AS cct2,
     movie_keyword AS mk,
     keyword AS k
WHERE mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND mc.company_type_id = ct.id
  AND ml.movie_id = t.id
  AND ml.link_type_id = lt.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND cc.movie_id = t.id
  AND cc.subject_id = cct1.id
  AND cc.status_id = cct2.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND t.production_year > 1980
  AND mc.note IS NULL
  AND lt.link LIKE '%follow%'
  AND it.info = 'countries'
  AND cct1.kind = 'cast'
  AND cct2.kind = 'complete'
  AND k.keyword = 'sequel';

-- Family 28 (3 variants): everything about western violent movies.
-- `t ⋈ kt ⋈ mc ⋈ cn ⋈ ct ⋈ mi ⋈ it ⋈ miidx ⋈ it2 ⋈ mk ⋈ k ⋈ cc ⋈ cct1 ⋈ cct2` — 15 joins.
-- name: 28a
SELECT COUNT(*)
FROM title AS t,
     kind_type AS kt,
     movie_companies AS mc,
     company_name AS cn,
     company_type AS ct,
     movie_info AS mi,
     info_type AS it,
     movie_info_idx AS miidx,
     info_type AS it2,
     movie_keyword AS mk,
     keyword AS k,
     complete_cast AS cc,
     comp_cast_type AS cct1,
     comp_cast_type AS cct2
WHERE t.kind_id = kt.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND mc.company_type_id = ct.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND miidx.movie_id = t.id
  AND miidx.info_type_id = it2.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND cc.movie_id = t.id
  AND cc.subject_id = cct1.id
  AND cc.status_id = cct2.id
  AND t.production_year > 2005
  AND kt.kind = 'movie'
  AND cn.country_code = '[us]'
  AND it.info = 'countries'
  AND it2.info = 'rating'
  AND k.keyword IN ('murder', 'blood', 'violence')
  AND cct1.kind = 'crew'
  AND cct2.kind LIKE 'complete%';

-- name: 28b
SELECT COUNT(*)
FROM title AS t,
     kind_type AS kt,
     movie_companies AS mc,
     company_name AS cn,
     company_type AS ct,
     movie_info AS mi,
     info_type AS it,
     movie_info_idx AS miidx,
     info_type AS it2,
     movie_keyword AS mk,
     keyword AS k,
     complete_cast AS cc,
     comp_cast_type AS cct1,
     comp_cast_type AS cct2
WHERE t.kind_id = kt.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND mc.company_type_id = ct.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND miidx.movie_id = t.id
  AND miidx.info_type_id = it2.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND cc.movie_id = t.id
  AND cc.subject_id = cct1.id
  AND cc.status_id = cct2.id
  AND t.production_year > 2000
  AND kt.kind IN ('movie', 'episode')
  AND it.info = 'countries'
  AND it2.info = 'rating'
  AND k.keyword IN ('murder', 'blood', 'violence')
  AND cct1.kind = 'crew'
  AND cct2.kind LIKE 'complete%';

-- name: 28c
SELECT COUNT(*)
FROM title AS t,
     kind_type AS kt,
     movie_companies AS mc,
     company_name AS cn,
     company_type AS ct,
     movie_info AS mi,
     info_type AS it,
     movie_info_idx AS miidx,
     info_type AS it2,
     movie_keyword AS mk,
     keyword AS k,
     complete_cast AS cc,
     comp_cast_type AS cct1,
     comp_cast_type AS cct2
WHERE t.kind_id = kt.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND mc.company_type_id = ct.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND miidx.movie_id = t.id
  AND miidx.info_type_id = it2.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND cc.movie_id = t.id
  AND cc.subject_id = cct1.id
  AND cc.status_id = cct2.id
  AND t.production_year > 1990
  AND it.info = 'countries'
  AND it2.info = 'rating'
  AND k.keyword IN ('murder', 'blood', 'violence')
  AND cct1.kind = 'crew'
  AND cct2.kind LIKE 'complete%';

-- Family 29 (3 variants): the full-schema query — cast, characters,
-- alternative names, person info, companies, keywords, info and ratings.
-- 17 relations, 19 joins.
-- name: 29a
SELECT COUNT(*)
FROM title AS t,
     kind_type AS kt,
     movie_companies AS mc,
     company_name AS cn,
     company_type AS ct,
     movie_info AS mi,
     info_type AS it,
     movie_info_idx AS miidx,
     info_type AS it2,
     movie_keyword AS mk,
     keyword AS k,
     cast_info AS ci,
     name AS n,
     role_type AS rt,
     char_name AS chn,
     aka_name AS an,
     person_info AS pi,
     info_type AS it3
WHERE t.kind_id = kt.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND mc.company_type_id = ct.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND miidx.movie_id = t.id
  AND miidx.info_type_id = it2.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND ci.movie_id = t.id
  AND ci.person_id = n.id
  AND ci.role_id = rt.id
  AND ci.person_role_id = chn.id
  AND an.person_id = n.id
  AND pi.person_id = n.id
  AND pi.info_type_id = it3.id
  AND t.production_year BETWEEN 2000 AND 2010
  AND kt.kind = 'movie'
  AND cn.country_code = '[us]'
  AND it.info = 'release dates'
  AND it2.info = 'rating'
  AND k.keyword = 'character-name-in-title'
  AND ci.note LIKE '%(voice)%'
  AND n.gender = 'f'
  AND rt.role = 'actress'
  AND it3.info = 'biography';

-- name: 29b
SELECT COUNT(*)
FROM title AS t,
     kind_type AS kt,
     movie_companies AS mc,
     company_name AS cn,
     company_type AS ct,
     movie_info AS mi,
     info_type AS it,
     movie_info_idx AS miidx,
     info_type AS it2,
     movie_keyword AS mk,
     keyword AS k,
     cast_info AS ci,
     name AS n,
     role_type AS rt,
     char_name AS chn,
     aka_name AS an,
     person_info AS pi,
     info_type AS it3
WHERE t.kind_id = kt.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND mc.company_type_id = ct.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND miidx.movie_id = t.id
  AND miidx.info_type_id = it2.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND ci.movie_id = t.id
  AND ci.person_id = n.id
  AND ci.role_id = rt.id
  AND ci.person_role_id = chn.id
  AND an.person_id = n.id
  AND pi.person_id = n.id
  AND pi.info_type_id = it3.id
  AND t.production_year > 2005
  AND kt.kind = 'movie'
  AND cn.country_code = '[us]'
  AND it.info = 'release dates'
  AND it2.info = 'rating'
  AND k.keyword = 'character-name-in-title'
  AND n.gender = 'f'
  AND n.name LIKE '%An%'
  AND rt.role = 'actress'
  AND it3.info = 'biography';

-- name: 29c
SELECT COUNT(*)
FROM title AS t,
     kind_type AS kt,
     movie_companies AS mc,
     company_name AS cn,
     company_type AS ct,
     movie_info AS mi,
     info_type AS it,
     movie_info_idx AS miidx,
     info_type AS it2,
     movie_keyword AS mk,
     keyword AS k,
     cast_info AS ci,
     name AS n,
     role_type AS rt,
     char_name AS chn,
     aka_name AS an,
     person_info AS pi,
     info_type AS it3
WHERE t.kind_id = kt.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND mc.company_type_id = ct.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND miidx.movie_id = t.id
  AND miidx.info_type_id = it2.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND ci.movie_id = t.id
  AND ci.person_id = n.id
  AND ci.role_id = rt.id
  AND ci.person_role_id = chn.id
  AND an.person_id = n.id
  AND pi.person_id = n.id
  AND pi.info_type_id = it3.id
  AND t.production_year > 1990
  AND kt.kind = 'movie'
  AND cn.country_code = '[us]'
  AND it.info = 'release dates'
  AND it2.info = 'rating'
  AND k.keyword = 'character-name-in-title'
  AND n.gender = 'f'
  AND rt.role = 'actress'
  AND it3.info = 'biography';

-- Family 30 (3 variants): complete-cast violent movies by male writers with
-- ratings.  `t ⋈ kt ⋈ mi ⋈ it ⋈ miidx ⋈ it2 ⋈ ci ⋈ n ⋈ rt ⋈ mk ⋈ k ⋈ cc ⋈ cct1 ⋈ cct2` — 15 joins.
-- name: 30a
SELECT COUNT(*)
FROM title AS t,
     kind_type AS kt,
     movie_info AS mi,
     info_type AS it,
     movie_info_idx AS miidx,
     info_type AS it2,
     cast_info AS ci,
     name AS n,
     role_type AS rt,
     movie_keyword AS mk,
     keyword AS k,
     complete_cast AS cc,
     comp_cast_type AS cct1,
     comp_cast_type AS cct2
WHERE t.kind_id = kt.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND miidx.movie_id = t.id
  AND miidx.info_type_id = it2.id
  AND ci.movie_id = t.id
  AND ci.person_id = n.id
  AND ci.role_id = rt.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND cc.movie_id = t.id
  AND cc.subject_id = cct1.id
  AND cc.status_id = cct2.id
  AND t.production_year > 2000
  AND kt.kind = 'movie'
  AND mi.info IN ('Horror', 'Thriller')
  AND it.info = 'genres'
  AND it2.info = 'votes'
  AND n.gender = 'm'
  AND rt.role = 'writer'
  AND k.keyword IN ('murder', 'violence', 'blood')
  AND cct1.kind = 'cast'
  AND cct2.kind LIKE 'complete%';

-- name: 30b
SELECT COUNT(*)
FROM title AS t,
     kind_type AS kt,
     movie_info AS mi,
     info_type AS it,
     movie_info_idx AS miidx,
     info_type AS it2,
     cast_info AS ci,
     name AS n,
     role_type AS rt,
     movie_keyword AS mk,
     keyword AS k,
     complete_cast AS cc,
     comp_cast_type AS cct1,
     comp_cast_type AS cct2
WHERE t.kind_id = kt.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND miidx.movie_id = t.id
  AND miidx.info_type_id = it2.id
  AND ci.movie_id = t.id
  AND ci.person_id = n.id
  AND ci.role_id = rt.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND cc.movie_id = t.id
  AND cc.subject_id = cct1.id
  AND cc.status_id = cct2.id
  AND kt.kind = 'movie'
  AND mi.info = 'Horror'
  AND it.info = 'genres'
  AND it2.info = 'votes'
  AND n.gender = 'm'
  AND rt.role = 'writer'
  AND k.keyword IN ('murder', 'violence', 'blood')
  AND cct1.kind = 'cast'
  AND cct2.kind LIKE 'complete%';

-- name: 30c
SELECT COUNT(*)
FROM title AS t,
     kind_type AS kt,
     movie_info AS mi,
     info_type AS it,
     movie_info_idx AS miidx,
     info_type AS it2,
     cast_info AS ci,
     name AS n,
     role_type AS rt,
     movie_keyword AS mk,
     keyword AS k,
     complete_cast AS cc,
     comp_cast_type AS cct1,
     comp_cast_type AS cct2
WHERE t.kind_id = kt.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND miidx.movie_id = t.id
  AND miidx.info_type_id = it2.id
  AND ci.movie_id = t.id
  AND ci.person_id = n.id
  AND ci.role_id = rt.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND cc.movie_id = t.id
  AND cc.subject_id = cct1.id
  AND cc.status_id = cct2.id
  AND t.production_year > 1990
  AND kt.kind = 'movie'
  AND it.info = 'genres'
  AND it2.info = 'votes'
  AND n.gender = 'm'
  AND rt.role = 'writer'
  AND k.keyword IN ('murder', 'violence', 'blood')
  AND cct1.kind = 'cast'
  AND cct2.kind LIKE 'complete%';

-- Family 31 (3 variants): writers of violent company movies with ratings.
-- `t ⋈ ci ⋈ n ⋈ mi ⋈ it ⋈ miidx ⋈ it2 ⋈ mk ⋈ k ⋈ mc ⋈ cn` — 12 joins.
-- name: 31a
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     name AS n,
     movie_info AS mi,
     info_type AS it,
     movie_info_idx AS miidx,
     info_type AS it2,
     movie_keyword AS mk,
     keyword AS k,
     movie_companies AS mc,
     company_name AS cn
WHERE ci.movie_id = t.id
  AND ci.person_id = n.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND miidx.movie_id = t.id
  AND miidx.info_type_id = it2.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND n.gender = 'm'
  AND mi.info = 'Horror'
  AND it.info = 'genres'
  AND it2.info = 'votes'
  AND k.keyword IN ('murder', 'blood', 'violence')
  AND cn.name LIKE '%Lionsgate%';

-- name: 31b
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     name AS n,
     movie_info AS mi,
     info_type AS it,
     movie_info_idx AS miidx,
     info_type AS it2,
     movie_keyword AS mk,
     keyword AS k,
     movie_companies AS mc,
     company_name AS cn
WHERE ci.movie_id = t.id
  AND ci.person_id = n.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND miidx.movie_id = t.id
  AND miidx.info_type_id = it2.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND n.gender = 'm'
  AND mi.info IN ('Horror', 'Thriller')
  AND it.info = 'genres'
  AND it2.info = 'votes'
  AND k.keyword IN ('murder', 'blood', 'violence')
  AND cn.name LIKE '%Warner%';

-- name: 31c
SELECT COUNT(*)
FROM title AS t,
     cast_info AS ci,
     name AS n,
     movie_info AS mi,
     info_type AS it,
     movie_info_idx AS miidx,
     info_type AS it2,
     movie_keyword AS mk,
     keyword AS k,
     movie_companies AS mc,
     company_name AS cn
WHERE ci.movie_id = t.id
  AND ci.person_id = n.id
  AND mi.movie_id = t.id
  AND mi.info_type_id = it.id
  AND miidx.movie_id = t.id
  AND miidx.info_type_id = it2.id
  AND mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND mc.movie_id = t.id
  AND mc.company_id = cn.id
  AND n.gender = 'm'
  AND mi.info IN ('Horror', 'Action', 'Thriller')
  AND it.info = 'genres'
  AND it2.info = 'votes'
  AND k.keyword IN ('murder', 'blood', 'violence');

-- Family 32 (2 variants): keyworded movies and what links to them.
-- `k ⋈ mk ⋈ t ⋈ ml ⋈ lt` — 4 joins.
-- name: 32a
SELECT COUNT(*)
FROM title AS t,
     movie_keyword AS mk,
     keyword AS k,
     movie_link AS ml,
     link_type AS lt
WHERE mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND ml.movie_id = t.id
  AND ml.link_type_id = lt.id
  AND k.keyword = 'character-name-in-title';

-- name: 32b
SELECT COUNT(*)
FROM title AS t,
     movie_keyword AS mk,
     keyword AS k,
     movie_link AS ml,
     link_type AS lt
WHERE mk.movie_id = t.id
  AND mk.keyword_id = k.id
  AND ml.movie_id = t.id
  AND ml.link_type_id = lt.id
  AND k.keyword IN ('sequel', 'second-part');

-- Family 33 (3 variants): linked pairs of rated series from specific
-- countries — a self-join of the movie side of the schema.
-- `cn1 ⋈ mc1 ⋈ t1 ⋈ kt1 ⋈ miidx1 ⋈ it1 ⋈ ml ⋈ t2 ⋈ kt2 ⋈ miidx2 ⋈ it2x ⋈ mc2 ⋈ cn2 ⋈ lt` — 14 relations.
-- name: 33a
SELECT COUNT(*)
FROM title AS t1,
     title AS t2,
     movie_link AS ml,
     link_type AS lt,
     kind_type AS kt1,
     kind_type AS kt2,
     movie_info_idx AS mii1,
     movie_info_idx AS mii2,
     info_type AS it1,
     info_type AS it2x,
     movie_companies AS mc1,
     company_name AS cn1,
     movie_companies AS mc2,
     company_name AS cn2
WHERE ml.movie_id = t1.id
  AND ml.linked_movie_id = t2.id
  AND ml.link_type_id = lt.id
  AND t1.kind_id = kt1.id
  AND t2.kind_id = kt2.id
  AND mii1.movie_id = t1.id
  AND mii1.info_type_id = it1.id
  AND mii2.movie_id = t2.id
  AND mii2.info_type_id = it2x.id
  AND mc1.movie_id = t1.id
  AND mc1.company_id = cn1.id
  AND mc2.movie_id = t2.id
  AND mc2.company_id = cn2.id
  AND lt.link IN ('follows', 'followed by')
  AND kt1.kind IN ('tv series', 'movie')
  AND kt2.kind IN ('tv series', 'movie')
  AND it1.info = 'rating'
  AND it2x.info = 'rating'
  AND cn1.country_code = '[us]';

-- name: 33b
SELECT COUNT(*)
FROM title AS t1,
     title AS t2,
     movie_link AS ml,
     link_type AS lt,
     kind_type AS kt1,
     kind_type AS kt2,
     movie_info_idx AS mii1,
     movie_info_idx AS mii2,
     info_type AS it1,
     info_type AS it2x,
     movie_companies AS mc1,
     company_name AS cn1,
     movie_companies AS mc2,
     company_name AS cn2
WHERE ml.movie_id = t1.id
  AND ml.linked_movie_id = t2.id
  AND ml.link_type_id = lt.id
  AND t1.kind_id = kt1.id
  AND t2.kind_id = kt2.id
  AND mii1.movie_id = t1.id
  AND mii1.info_type_id = it1.id
  AND mii2.movie_id = t2.id
  AND mii2.info_type_id = it2x.id
  AND mc1.movie_id = t1.id
  AND mc1.company_id = cn1.id
  AND mc2.movie_id = t2.id
  AND mc2.company_id = cn2.id
  AND t2.production_year >= 2000
  AND lt.link IN ('follows', 'followed by')
  AND kt1.kind IN ('tv series', 'movie')
  AND kt2.kind IN ('tv series', 'movie')
  AND it1.info = 'rating'
  AND it2x.info = 'rating'
  AND cn1.country_code = '[de]';

-- name: 33c
SELECT COUNT(*)
FROM title AS t1,
     title AS t2,
     movie_link AS ml,
     link_type AS lt,
     kind_type AS kt1,
     kind_type AS kt2,
     movie_info_idx AS mii1,
     movie_info_idx AS mii2,
     info_type AS it1,
     info_type AS it2x,
     movie_companies AS mc1,
     company_name AS cn1,
     movie_companies AS mc2,
     company_name AS cn2
WHERE ml.movie_id = t1.id
  AND ml.linked_movie_id = t2.id
  AND ml.link_type_id = lt.id
  AND t1.kind_id = kt1.id
  AND t2.kind_id = kt2.id
  AND mii1.movie_id = t1.id
  AND mii1.info_type_id = it1.id
  AND mii2.movie_id = t2.id
  AND mii2.info_type_id = it2x.id
  AND mc1.movie_id = t1.id
  AND mc1.company_id = cn1.id
  AND mc2.movie_id = t2.id
  AND mc2.company_id = cn2.id
  AND lt.link IN ('follows', 'followed by', 'remake of', 'remade as')
  AND kt1.kind IN ('tv series', 'movie')
  AND kt2.kind IN ('tv series', 'movie')
  AND it1.info = 'rating'
  AND it2x.info = 'rating';
