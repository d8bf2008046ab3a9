"""Genus-one hyperelliptic counts against the Kleiman-Piene nodal counts.

With one conjugate pair (l = 1) the genus-one entry counts every genus-one
curve through the points, since any two points of an elliptic curve are
the fibre of one g^1_2.  A curve of bidegree (d1, d2) has arithmetic genus
(d1 - 1)(d2 - 1) and |L| has dimension (d1 + 1)(d2 + 1) - 1, so its
genus-one curves are the irreducible ones among the N_delta
delta-nodal curves with delta = (d1 - 1)(d2 - 1) - 1.
"""

import csv
from pathlib import Path

from qhilb.gw_engine import Engine
from qhilb.hyperelliptic import HyperellipticQuery, count_table
from oracle_quadric import rational_count
from oracle_severi import plane_nodal_counts, quadric_nodal_counts

DATA = Path(__file__).parent / "data"


def test_kleiman_piene_plane_curves():
    # the classical numbers: 12 nodal cubics, 21 binodal ones (a line
    # through 2 of 7 points plus the conic through the other 5), and 27
    # nodal and 225 binodal quartics
    assert plane_nodal_counts(3) == (12, 21)
    assert plane_nodal_counts(4) == (27, 225)


def test_kleiman_piene_meets_kontsevich_manin():
    # (2,2) has arithmetic genus 1: its 1-nodal curves are the 12 rational
    # ones, as no split of (2,2) meets in a single point.  (2,3) has
    # arithmetic genus 2: its 2-nodal curves through 9 points are the
    # rational ones plus the 9 unions of the (0,1) fibre through one point
    # and the (2,2) curve through the other 8, which meet in 2 points
    assert quadric_nodal_counts(2, 2)[0] == rational_count(2, 2) == 12
    assert quadric_nodal_counts(2, 3)[1] == rational_count(2, 3) + 9 == 105
    assert quadric_nodal_counts(3, 2) == quadric_nodal_counts(2, 3)


def _atlas_count(vanishing, d1, d2, l, h):
    with open(DATA / "atlas_c4.golden.csv") as f:
        rows = list(csv.DictReader(line for line in f if not line.startswith("#")))
    [count] = [r["count"] for r in rows
               if (r["vanishing"], r["d1"], r["d2"], r["l"], r["h"])
               == tuple(str(x) for x in (vanishing, d1, d2, l, h))]
    return count


def test_genus_one_counts_2_3_are_one_nodal():
    # (2,3) has arithmetic genus 2, so its genus-one curves are 1-nodal;
    # no split of (2,3) meets in a single point, so N_1 = 20 counts them all
    n1, _ = quadric_nodal_counts(2, 3)
    assert n1 == 20
    assert _atlas_count(1, 2, 3, 1, 1) == _atlas_count(1, 3, 2, 1, 1) == str(n1)


def test_genus_one_count_2_4_is_two_nodal_less_reducible():
    # (2,4) has arithmetic genus 3, so its genus-one curves are 2-nodal,
    # through dim|(2,4)| - 2 = 12 points.  N_2 = 252 also counts reducible
    # 2-nodal curves.  A (0,1) curve meets a (2,3) curve in 0*3 + 1*2 = 2
    # points; the (0,1) fibre through one of the 12 points and the one
    # (2,3) curve through the other 11 (dim|(2,3)| = 11) make 12 of them.
    # Every other split has at least 4 nodes: (1,0)+(1,4), (1,1)+(1,3),
    # (1,2)+(1,2) and (0,2)+(2,2) meet in 4, (0,3)+(2,1) in 6, and three
    # or more components meet more.  So 252 - 12 = 240 genus-one curves.
    # The atlas stops at d1 + d2 = 5, and this column needs c_max 5.
    _, n2 = quadric_nodal_counts(2, 4)
    assert n2 == 252
    engine = Engine(c_max=5, enable_bidegree_vanishing=True)
    table = count_table(HyperellipticQuery(2, 4, l=1), engine)
    assert table.counts[1] == n2 - 12 == 240
