"""Frozen CLI inputs and expected outputs shared by the CLI tests.

The stdout strings and file bodies below were verified line by line
against hand-computed values before freezing; the CLI must reproduce
them byte for byte.
"""

P_JSON = '{"values": [0.6, 0.3, 0.1]}\n'
Q_JSON = '{"values": [0.4, 0.3, 0.3]}\n'
A_CSV = "0.5\n0.5\n0\n"
B_CSV = "0.6\n0.2\n0.2\n"

CHECK_P_Q = """\
p majorizes q: yes
q majorizes p: no
first failing prefix q->p: 1
delta_star p->q: 0
delta_star q->p: 0.4
"""

CHECK_A_B = """\
p majorizes q: no
q majorizes p: no
first failing prefix p->q: 1
first failing prefix q->p: 2
delta_star p->q: 0.2
delta_star q->p: 0.4
"""

APPROX_STEEPEST = """\
kind: steepest
delta: 0.4
clamped: no
values: 0.8 0.2 0
head_count: 1
tail_value: 0.2
"""

APPROX_FLATTEST = """\
kind: flattest
delta: 0.4
clamped: no
values: 0.4 0.3 0.3
upper_level: 0.4
lower_level: 0.3
upper_count: 1
lower_start: 2
"""

APPROX_STEEPEST_JSON = """\
{
  "kind": "steepest",
  "delta": 0.4,
  "clamped": false,
  "values": [
    0.8,
    0.2,
    0.0
  ],
  "meta": {
    "head_count": 1,
    "tail_value": 0.2
  }
}
"""

APPROX_STEEPEST_LORENZ = "l,cumulative\n0,0\n1,0.8\n2,1\n3,1\n"

APPROX_STEEPEST_CLAMPED = """\
kind: steepest
delta: 1.5
clamped: yes
values: 1 0 0
"""

APPROX_FLATTEST_CLAMPED = """\
kind: flattest
delta: 1.5
clamped: yes
values: 0.333333333333 0.333333333333 0.333333333333
"""

APPROX_STEEPEST_CLAMPED_JSON = """\
{
  "kind": "steepest",
  "delta": 1.5,
  "clamped": true,
  "values": [
    1.0,
    0.0,
    0.0
  ],
  "meta": {}
}
"""

APPROX_FLATTEST_JSON = """\
{
  "kind": "flattest",
  "delta": 0.4,
  "clamped": false,
  "values": [
    0.4,
    0.3,
    0.3
  ],
  "meta": {
    "upper_level": 0.4,
    "lower_level": 0.3,
    "upper_count": 1,
    "lower_start": 2
  }
}
"""

DISTANCE_A_B = """\
delta_star: 0.2
witness steepest(p, delta_star) majorizes q: PASS
witness p majorizes flattest(q, delta_star): PASS
"""

DISTANCE_P_Q = """\
delta_star: 0
note: p already majorizes q
witness steepest(p, delta_star) majorizes q: PASS
witness p majorizes flattest(q, delta_star): PASS
"""

SMOOTH_SHANNON_MAX = """\
function: shannon (schur_concave)
mode: max
delta: 0.4
evaluated_at: flattest
value: 1.57095059445
oracle_value: 1.57095059445
gap: 0
verify: PASS
"""

SMOOTH_RENYI_INF_MIN = """\
function: renyi:inf (schur_concave)
mode: min
delta: 0.4
evaluated_at: steepest
value: 0.321928094887
"""

LORENZ_TABLE = "l,base,steepest,flattest\n0,0,0,0\n1,0.6,0.8,0.4\n2,0.9,1,0.7\n3,1,1,1\n"

LORENZ_PLAIN = "l,cumulative\n0,0\n1,0.6\n2,0.9\n3,1\n"


def write_inputs(tmp_path):
    """Drop the four standard input files into tmp_path; returns their paths."""
    paths = {}
    for name, body in [
        ("p.json", P_JSON),
        ("q.json", Q_JSON),
        ("a.csv", A_CSV),
        ("b.csv", B_CSV),
    ]:
        f = tmp_path / name
        f.write_text(body)
        paths[name] = str(f)
    return paths
