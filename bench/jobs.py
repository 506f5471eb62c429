"""Job lists of the permlip benchmark's three workloads.

Shared by ``run.py`` (which runs and checks them) and ``make_refs.py``
(which records their reference outputs).  Every size here stays inside
the default brute-force ceiling of 14 and leaves ``PERMLIP_CEILING``
unset.
"""

# probe-sweep: one probe.build_profile job per (m, N).  The fits are
# refused at every point, so nearly all time is the brute-force walk.
PROBE_POINTS = ((3, 14), (4, 12), (5, 12))

# exact-m2-bign: sizes chosen for ~300 MB peak RSS (n = 2*10^5 would
# need 1.45 GB).
M2_N = 60000
SERIES_COUNT = 20001
CONVERGENCE_N = 10000
M2_FIT_TERMS = 40
CATALAN_FIT_TERMS = 24
FIT_BOUNDS = (12, 12)  # max_order, max_offset, as permlip.probe uses
M2_RECURRENCE = (3, -3, 2, -2, 1)
M2_VALID_FROM = 7

# cli-session: (argv, expected exit code).  Forty-two sequential
# invocations per pass, so p75 has ten samples beyond it in one pass.
CLI_SESSION = [
    ("count -n 6 -m 2", 0),
    ("count -n 12 -m 3", 0),
    ("count -n 14 -m 2", 0),
    ("count -n 9 -m 8", 0),
    ("count -n 1000 -m 2 --engine closed", 0),
    ("count -n 200 -m 2 --engine closed", 0),
    ("count -n 1000 -m 2 --engine recurrence", 0),
    ("count -n 100 -m 2 --engine recurrence", 0),
    ("count -n 1000 -m 2 --engine gf", 0),
    ("count -n 12 -m 11 --engine closed", 0),
    ("count -n 12 -m 11 --engine recurrence", 0),
    ("count -n 50 -m 1 --engine gf", 0),
    ("count -n 10 -m 3 --engine gf", 2),
    ("count -n 15 -m 2", 3),
    ("seq -m 2 -N 20 --format plain", 0),
    ("seq -m 2 -N 20 --format csv", 0),
    ("seq -m 2 -N 20 --format json", 0),
    ("seq -m 2 -N 20 --format bfile", 0),
    ("seq -m 2 -N 10", 0),
    ("seq -m 2 -N 30 --format json", 0),
    ("seq -m 1 -N 10 --format json", 0),
    ("seq -m 4 -N 10 --format csv", 0),
    ("seq -m 3 -N 11", 0),
    ("seq -m 9 -N 9", 0),
    ("asym", 0),
    ("asym --convergence 200", 0),
    ("probe -m 3 -N 11", 0),
    ("probe -m 2 -N 12", 0),
] + [
    (f"verify --suite {suite} -N {n}", 0)
    for suite in ("max-position", "max-first", "max-second", "max-last",
                  "split", "gf", "asymptotics")
    for n in (9, 10)
]


def probe_sweep_jobs(refs):
    return [
        {"id": f"build_profile({m},{n})", "fn": "probe.build_profile", "args": [m, n],
         "summary": "profile", "check": "profile", "expect": refs["probe_terms"][f"{m},{n}"]}
        for m, n in PROBE_POINTS
    ]


def exact_m2_jobs(refs):
    digests = refs["digests"]
    m2_terms = [int(t) for t in refs["m2_terms"][:M2_FIT_TERMS]]
    catalan_terms = [int(t) for t in refs["catalan"][:CATALAN_FIT_TERMS]]
    first_ten = refs["m2_terms"][:10]
    series_head = ["0"] + first_ten
    const = refs["constants"]
    return [
        {"id": "class_count(1..10)", "fn": "m2.class_count", "each": [[n] for n in range(1, 11)],
         "summary": "ints", "check": "equal", "expect": refs["m2_first_ten_paper"]},
        {"id": f"class_count({M2_N})", "fn": "m2.class_count", "args": [M2_N],
         "summary": "digest", "check": "equal", "expect": digests[str(M2_N)]},
        {"id": f"class_count_by_recurrence({M2_N})", "fn": "m2.class_count_by_recurrence",
         "args": [M2_N], "summary": "digest", "check": "equal", "expect": digests[str(M2_N)]},
        {"id": f"series_coeffs(gf_m2(),{SERIES_COUNT})", "fn": "genfunc.series_coeffs",
         "args": [{"call": "genfunc.gf_m2"}, SERIES_COUNT], "summary": "series", "check": "equal",
         "expect": {"length": SERIES_COUNT, "head": series_head,
                    "last": digests[str(SERIES_COUNT - 1)]}},
        {"id": f"fit_recurrence(m2[:{M2_FIT_TERMS}])", "fn": "genfunc.fit_recurrence",
         "args": [m2_terms, *FIT_BOUNDS], "summary": "recurrence", "check": "equal",
         "expect": {"order": len(M2_RECURRENCE), "coefficients": [str(c) for c in M2_RECURRENCE],
                    "valid_from": M2_VALID_FROM}},
        {"id": f"fit_recurrence(catalan[:{CATALAN_FIT_TERMS}])", "fn": "genfunc.fit_recurrence",
         "args": [catalan_terms, *FIT_BOUNDS], "summary": "recurrence", "check": "equal",
         "expect": None},
        {"id": "dominant_root(m2 recurrence)", "fn": "genfunc.dominant_root",
         "args": [list(M2_RECURRENCE)], "summary": "float", "check": "close",
         "expect": {"value": [const["alpha"]], "rel": 1e-9}},
        {"id": "estimate()", "fn": "asymptotics.estimate", "args": [], "summary": "estimate",
         "check": "close",
         "expect": {"value": [const["rho"], const["alpha"], const["amplitude"]], "rel": 1e-12}},
        {"id": f"convergence_report({CONVERGENCE_N})", "fn": "asymptotics.convergence_report",
         "args": [CONVERGENCE_N], "summary": "convergence", "check": "convergence",
         "expect": {"rows": CONVERGENCE_N, "last": digests[str(CONVERGENCE_N)]}},
    ]
