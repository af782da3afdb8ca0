"""Golden gate for the CLI: exit code, stdout and stderr bytes, pinned by digest.

Each case is one argv, run in-process through `main` at --workers 1 and 2,
and must reproduce the same (exit code, sha256 of stdout, sha256 of stderr)
at both worker counts.  Digests are the first 16 hex digits of sha256.

Covered: every subcommand (every lift mode and psi formula) in each of
--format table, json and csv at small sizes; every README CLI example at its
README size (each runs in under 1 s in-process, so none is shrunk); the
three argument checks argparse cannot express (--tau for lift residue/pairs,
--u/--n for psi indicator, --g/--p for psi s/n), which exit 2 with a
message on stderr; other exit-2 paths; and the survey, agreement and
gs-stats progress lines on stderr.
"""

import hashlib

import pytest

from primroot.cli import main

FORMATS = ("table", "json", "csv")

SMALL = [
    "test --g 19 --p 43",
    "test --g 3 --p 43",
    "order --a 10 --n 343",
    "order --a 3 --n 98",
    "least --p 43",
    "lift --p 43 --tau 19",
    "lift --p 43 --tau 19 --mode pairs --kmax 2",
    "lift --p 7 --mode enumerate --k 2",
    "psi --u 6 --n 41",
    "psi --formula s --g 19 --p 43",
    "psi --formula n --g 19 --p 43",
    "charsum --trials 3 --seed 5",
    "charsum --trials 3 --seed 5 --additive --p 50",
    "constants --primes 50",
    "survey --x 10 --z 5",
    "survey --x 100 --z 10",
    "agreement --x 100",
    "period --base 10 --p 7 --k 2",
    "period --base 2 --p 1093 --k 2",
    "omega --x 1000",
    "fixed-g --g 2 --x 1000",
    "fixed-g --g -3 --x 1000",
    "gs-stats --x 1000",
    "totient --x 100 --k 2",
    "totient --x 20000",
    "main-term --x 100",
]

README = [
    "least --p 40487 --format json",
    "test --g 19 --p 43",
    "period --base 10 --p 7 --k 2 --format json",
    "order --a 10 --n 343",
    "lift --p 43 --tau 19",
    "lift --p 43 --tau 19 --mode pairs",
    "lift --p 5 --mode enumerate --k 1",
    "psi --u 6 --n 41",
    "psi --formula s --g 19 --p 43",
    "charsum --trials 200 --seed 0",
    "constants --primes 10000 --format json",
    "survey --x 1000 --z 50 --format csv",
    "agreement --x 40000",
    "omega --x 100000",
    "fixed-g --g 2 --x 10000",
    "gs-stats --x 100000",
    "totient --x 1000000 --k 2",
    "main-term --x 10000",
]

ERRORS_AND_PROGRESS = [
    "lift --p 5 --mode pairs",
    "lift --p 5 --mode residue --format json",
    "psi --u 6",
    "psi --n 41 --format json",
    "psi --formula s --g 19",
    "psi --formula n --p 43 --format csv",
    "test --g 3 --p 42",
    "order --a 5 --n 12",
    "fixed-g --g 4 --x 100",
    "survey --x 10 --z 1000",
    "omega --x 10000000000",
    "main-term --x 0",
    "survey --x 3000 --z 20 --format csv",
    "survey --x 3000 --z 20 --format json",
]

CASES = list(
    dict.fromkeys(
        [f"{argv} --format {fmt}" for argv in SMALL for fmt in FORMATS] + README + ERRORS_AND_PROGRESS
    )
)

# argv -> (exit code, stdout digest, stderr digest)
GOLDEN = {
    "test --g 19 --p 43 --format table": (0, "75f65c5cb2c83fe9", "e3b0c44298fc1c14"),
    "test --g 19 --p 43 --format json": (0, "5d2d55099930dac5", "e3b0c44298fc1c14"),
    "test --g 19 --p 43 --format csv": (0, "78dbb43a750d671a", "e3b0c44298fc1c14"),
    "test --g 3 --p 43 --format table": (0, "47171c81be29d148", "e3b0c44298fc1c14"),
    "test --g 3 --p 43 --format json": (0, "ecf3eb525c44ae9a", "e3b0c44298fc1c14"),
    "test --g 3 --p 43 --format csv": (0, "c0d8c47c763d73cc", "e3b0c44298fc1c14"),
    "order --a 10 --n 343 --format table": (0, "8cddad910238a1a3", "e3b0c44298fc1c14"),
    "order --a 10 --n 343 --format json": (0, "bf3ed3656da44fa6", "e3b0c44298fc1c14"),
    "order --a 10 --n 343 --format csv": (0, "06955bc856ca749a", "e3b0c44298fc1c14"),
    "order --a 3 --n 98 --format table": (0, "a432f3cb6fd6cde9", "e3b0c44298fc1c14"),
    "order --a 3 --n 98 --format json": (0, "0c428d74e4f357c7", "e3b0c44298fc1c14"),
    "order --a 3 --n 98 --format csv": (0, "b8a2d6da4224b060", "e3b0c44298fc1c14"),
    "least --p 43 --format table": (0, "690321ec8f67dfb3", "e3b0c44298fc1c14"),
    "least --p 43 --format json": (0, "7b6c88a2d27fc34b", "e3b0c44298fc1c14"),
    "least --p 43 --format csv": (0, "2f89660ee495cade", "e3b0c44298fc1c14"),
    "lift --p 43 --tau 19 --format table": (0, "97d56091cdda3ad4", "e3b0c44298fc1c14"),
    "lift --p 43 --tau 19 --format json": (0, "fadf5dd436b33e27", "e3b0c44298fc1c14"),
    "lift --p 43 --tau 19 --format csv": (0, "7f8a5e649ebc6a6b", "e3b0c44298fc1c14"),
    "lift --p 43 --tau 19 --mode pairs --kmax 2 --format table": (0, "74977f357ffc8889", "e3b0c44298fc1c14"),
    "lift --p 43 --tau 19 --mode pairs --kmax 2 --format json": (0, "06c2ad7563f58fcf", "e3b0c44298fc1c14"),
    "lift --p 43 --tau 19 --mode pairs --kmax 2 --format csv": (0, "9ee633f332a6b1c6", "e3b0c44298fc1c14"),
    "lift --p 7 --mode enumerate --k 2 --format table": (0, "055d4607ec82ea3a", "e3b0c44298fc1c14"),
    "lift --p 7 --mode enumerate --k 2 --format json": (0, "76269736db8ae61b", "e3b0c44298fc1c14"),
    "lift --p 7 --mode enumerate --k 2 --format csv": (0, "88c3ccf2decc7c6d", "e3b0c44298fc1c14"),
    "psi --u 6 --n 41 --format table": (0, "79e3eb253c61dd39", "e3b0c44298fc1c14"),
    "psi --u 6 --n 41 --format json": (0, "67993006fb7643c7", "e3b0c44298fc1c14"),
    "psi --u 6 --n 41 --format csv": (0, "9fee79602631ee40", "e3b0c44298fc1c14"),
    "psi --formula s --g 19 --p 43 --format table": (0, "a4ee1a5311e30213", "e3b0c44298fc1c14"),
    "psi --formula s --g 19 --p 43 --format json": (0, "bb2cd42be346c17e", "e3b0c44298fc1c14"),
    "psi --formula s --g 19 --p 43 --format csv": (0, "7062edbaab5c32ec", "e3b0c44298fc1c14"),
    "psi --formula n --g 19 --p 43 --format table": (0, "7027aef110a22254", "e3b0c44298fc1c14"),
    "psi --formula n --g 19 --p 43 --format json": (0, "589a1c14720e1834", "e3b0c44298fc1c14"),
    "psi --formula n --g 19 --p 43 --format csv": (0, "2590f02f6c81182d", "e3b0c44298fc1c14"),
    "charsum --trials 3 --seed 5 --format table": (0, "76dead010d2dc752", "e3b0c44298fc1c14"),
    "charsum --trials 3 --seed 5 --format json": (0, "e84e1d3a17b7dafa", "e3b0c44298fc1c14"),
    "charsum --trials 3 --seed 5 --format csv": (0, "e376ce0458b7e918", "e3b0c44298fc1c14"),
    "charsum --trials 3 --seed 5 --additive --p 50 --format table": (0, "06d212cf26692549", "e3b0c44298fc1c14"),
    "charsum --trials 3 --seed 5 --additive --p 50 --format json": (0, "e085356e11041ccc", "e3b0c44298fc1c14"),
    "charsum --trials 3 --seed 5 --additive --p 50 --format csv": (0, "ba59813e2d71798f", "e3b0c44298fc1c14"),
    "constants --primes 50 --format table": (0, "eee0f0e3f668bf25", "e3b0c44298fc1c14"),
    "constants --primes 50 --format json": (0, "cecfe8cf5417bef6", "e3b0c44298fc1c14"),
    "constants --primes 50 --format csv": (0, "c57be3b97186d8ee", "e3b0c44298fc1c14"),
    "survey --x 10 --z 5 --format table": (0, "5a888b7ba3e6ba51", "e3b0c44298fc1c14"),
    "survey --x 10 --z 5 --format json": (0, "666ad6afe2961cbd", "e3b0c44298fc1c14"),
    "survey --x 10 --z 5 --format csv": (0, "e3f88632e8793a6b", "e3b0c44298fc1c14"),
    "survey --x 100 --z 10 --format table": (0, "7cb84bf1f9ae4a0a", "e3b0c44298fc1c14"),
    "survey --x 100 --z 10 --format json": (0, "f062426b39d6eaab", "e3b0c44298fc1c14"),
    "survey --x 100 --z 10 --format csv": (0, "89f1633806641ae3", "e3b0c44298fc1c14"),
    "agreement --x 100 --format table": (0, "8d8a5897aae7dd8f", "e3b0c44298fc1c14"),
    "agreement --x 100 --format json": (0, "de8f88a59e67ca96", "e3b0c44298fc1c14"),
    "agreement --x 100 --format csv": (0, "6089ec207be440cf", "e3b0c44298fc1c14"),
    "period --base 10 --p 7 --k 2 --format table": (0, "b7a87c01d0c12692", "e3b0c44298fc1c14"),
    "period --base 10 --p 7 --k 2 --format json": (0, "c8da0635cb5e39d2", "e3b0c44298fc1c14"),
    "period --base 10 --p 7 --k 2 --format csv": (0, "6ba6bbb3e410f57a", "e3b0c44298fc1c14"),
    "period --base 2 --p 1093 --k 2 --format table": (0, "8bf59ee1542cf009", "e3b0c44298fc1c14"),
    "period --base 2 --p 1093 --k 2 --format json": (0, "8fc993aa0616f9e4", "e3b0c44298fc1c14"),
    "period --base 2 --p 1093 --k 2 --format csv": (0, "f05286c21d8eaa4f", "e3b0c44298fc1c14"),
    "omega --x 1000 --format table": (0, "aa96bc099d1bf8cf", "e3b0c44298fc1c14"),
    "omega --x 1000 --format json": (0, "d823fdc5430131b5", "e3b0c44298fc1c14"),
    "omega --x 1000 --format csv": (0, "28ca2e6d3b916109", "e3b0c44298fc1c14"),
    "fixed-g --g 2 --x 1000 --format table": (0, "d5919c396c194914", "e3b0c44298fc1c14"),
    "fixed-g --g 2 --x 1000 --format json": (0, "1bd39104cfd97cef", "e3b0c44298fc1c14"),
    "fixed-g --g 2 --x 1000 --format csv": (0, "a99ff7297f274b69", "e3b0c44298fc1c14"),
    "fixed-g --g -3 --x 1000 --format table": (0, "618a8ed4d6c4c1e0", "e3b0c44298fc1c14"),
    "fixed-g --g -3 --x 1000 --format json": (0, "42a8a60d9ebd95b3", "e3b0c44298fc1c14"),
    "fixed-g --g -3 --x 1000 --format csv": (0, "9ba55b4155f67a0e", "e3b0c44298fc1c14"),
    "gs-stats --x 1000 --format table": (0, "75f82c0bcc262d80", "e3b0c44298fc1c14"),
    "gs-stats --x 1000 --format json": (0, "4e04c0a7682e728c", "e3b0c44298fc1c14"),
    "gs-stats --x 1000 --format csv": (0, "fb4aa27a5678edc5", "e3b0c44298fc1c14"),
    "totient --x 100 --k 2 --format table": (0, "0f186ee0207239e7", "e3b0c44298fc1c14"),
    "totient --x 100 --k 2 --format json": (0, "e07642445dd10805", "e3b0c44298fc1c14"),
    "totient --x 100 --k 2 --format csv": (0, "e64357552badb322", "e3b0c44298fc1c14"),
    "totient --x 20000 --format table": (0, "b35610dd80af781c", "e3b0c44298fc1c14"),
    "totient --x 20000 --format json": (0, "7f1bdb03a4049780", "e3b0c44298fc1c14"),
    "totient --x 20000 --format csv": (0, "ac98c6b8d2689ae9", "e3b0c44298fc1c14"),
    "main-term --x 100 --format table": (0, "32b6dbedef01d281", "e3b0c44298fc1c14"),
    "main-term --x 100 --format json": (0, "32bbf3ef2dbc7b9a", "e3b0c44298fc1c14"),
    "main-term --x 100 --format csv": (0, "e413a67698a6cac8", "e3b0c44298fc1c14"),
    "least --p 40487 --format json": (0, "e01d336db23d95a9", "e3b0c44298fc1c14"),
    "test --g 19 --p 43": (0, "75f65c5cb2c83fe9", "e3b0c44298fc1c14"),
    "order --a 10 --n 343": (0, "8cddad910238a1a3", "e3b0c44298fc1c14"),
    "lift --p 43 --tau 19": (0, "97d56091cdda3ad4", "e3b0c44298fc1c14"),
    "lift --p 43 --tau 19 --mode pairs": (0, "d4eaab31257ea904", "e3b0c44298fc1c14"),
    "lift --p 5 --mode enumerate --k 1": (0, "0171d3cd7fc1e6a6", "e3b0c44298fc1c14"),
    "psi --u 6 --n 41": (0, "79e3eb253c61dd39", "e3b0c44298fc1c14"),
    "psi --formula s --g 19 --p 43": (0, "a4ee1a5311e30213", "e3b0c44298fc1c14"),
    "charsum --trials 200 --seed 0": (0, "9bde37810b91117a", "e3b0c44298fc1c14"),
    "constants --primes 10000 --format json": (0, "189dce13413dc5b9", "e3b0c44298fc1c14"),
    "survey --x 1000 --z 50 --format csv": (0, "4821b1304bc7be05", "e3b0c44298fc1c14"),
    "agreement --x 40000": (0, "b701d89a7522e932", "236cf16826600d55"),
    "omega --x 100000": (0, "e6957a59f17b497f", "e3b0c44298fc1c14"),
    "fixed-g --g 2 --x 10000": (0, "d5425daa8fe13d31", "e3b0c44298fc1c14"),
    "gs-stats --x 100000": (0, "017a130b5fddd674", "17ec5cefed564e56"),
    "totient --x 1000000 --k 2": (0, "e48e645da51f9b25", "e3b0c44298fc1c14"),
    "main-term --x 10000": (0, "5431e9d8094ab583", "e3b0c44298fc1c14"),
    "lift --p 5 --mode pairs": (2, "e3b0c44298fc1c14", "abfb795a7b1387cb"),
    "lift --p 5 --mode residue --format json": (2, "e3b0c44298fc1c14", "56e0894019be4a34"),
    "psi --u 6": (2, "e3b0c44298fc1c14", "20a50f303e4182d2"),
    "psi --n 41 --format json": (2, "e3b0c44298fc1c14", "20a50f303e4182d2"),
    "psi --formula s --g 19": (2, "e3b0c44298fc1c14", "241072a354f72c59"),
    "psi --formula n --p 43 --format csv": (2, "e3b0c44298fc1c14", "241072a354f72c59"),
    "test --g 3 --p 42": (2, "e3b0c44298fc1c14", "ca8b8d6667459a6b"),
    "order --a 5 --n 12": (2, "e3b0c44298fc1c14", "1f6f01c3a19cc091"),
    "fixed-g --g 4 --x 100": (2, "e3b0c44298fc1c14", "92f744c577ddd56d"),
    "survey --x 10 --z 1000": (2, "e3b0c44298fc1c14", "83b89bce6f7fa957"),
    "omega --x 10000000000": (2, "e3b0c44298fc1c14", "13109d64ddb04cb3"),
    "main-term --x 0": (2, "e3b0c44298fc1c14", "5746bcce1ce1fedb"),
    "survey --x 3000 --z 20 --format csv": (0, "50e181346da71054", "660817cc07737f6f"),
    "survey --x 3000 --z 20 --format json": (0, "94fff599fb6497e4", "660817cc07737f6f"),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_case(capsys, argv: str, workers: int) -> tuple[int, str, str]:
    rc = main(argv.split() + ["--workers", str(workers)])
    captured = capsys.readouterr()
    return rc, _digest(captured.out), _digest(captured.err)


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("argv", CASES)
def test_cli_bytes_match_golden(capsys, argv, workers):
    assert run_case(capsys, argv, workers) == GOLDEN[argv]
