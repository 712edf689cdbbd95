"""The 22 CLI invocations pinned by digest: the nine commands on both bundled
scenarios, ``fit --data scenarios/pump_sweep.csv`` on both, and ``report
--format csv`` on both.  Each run goes in-process through ``cli.run`` into its
own directory, with warnings as errors.  One SHA-256 per run covers the exit
code, stdout, stderr, and the name and bytes of each output file.

The digests belong to the toolchain they were recorded on (Python 3.11,
numpy 2.4.6): another numpy may round a last bit differently.  Record any
re-recording in CHANGES.md with its cause.  To print the digests of the
current tree, run ``PYTHONPATH=src python tests/test_golden_outputs.py``.
"""

import hashlib
import io
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from opasim.cli import run

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

COMMANDS = ("simulate", "sweep", "bode", "margins", "select-freq", "fit", "optimize", "budget", "report")
# name -> (command, extra options)
EXTRA = {"fit-data": ("fit", "--data", str(SCENARIO_DIR / "pump_sweep.csv")),
         "report-csv": ("report", "--format", "csv")}

GOLDEN = {
    ("simulate", "zero_span_locked"): "1fa7839609d3e9cc29fd21fca180f408928610e57d619d4f7023decff96c25b1",
    ("sweep", "zero_span_locked"): "496ffd1b06e0615664aacccf78c755f1ce135e6adc3399a86af6b208019b9d60",
    ("bode", "zero_span_locked"): "8e01a4360b1d292fefc98441614ad6fb51894aab1cd96f4165d095798bad6cff",
    ("margins", "zero_span_locked"): "0f0da2912d5a4f64db3cf4779aaa634ffa024e8df355115cee4ac9120bafa6fb",
    ("select-freq", "zero_span_locked"): "a8cee890a9db560736f8257cf1171ffcfad3d3a4d92a002d73f6a167a66de3bf",
    ("fit", "zero_span_locked"): "d8f2b56eabf3c9427bcab94d58d5a5a9d71de6663bcf49be773db6b73c4fbb47",
    ("optimize", "zero_span_locked"): "3551a5b8c9d7fe3b9b4ccadf2a872b41088f89c148f051592c98c3fa11d85cf8",
    ("budget", "zero_span_locked"): "25ee8172a467d008d5704a4122cefc968065752c61d46f89e78787576816cd3f",
    ("report", "zero_span_locked"): "b25e2feadbd463f9a4956178f3581caff9b72f2cc414109ce9d3b85b120949b4",
    ("fit-data", "zero_span_locked"): "ac554dc9710a5947b677259a54719e9158e425f2b877dd88b058f1f99e9e7938",
    ("report-csv", "zero_span_locked"): "ed66e5b6ce4d349c36a6b801461fbbeaff0d3df3373dd78dc2509ee4e1628cef",
    ("simulate", "zero_span_scanned"): "a04632ffcf76505446dba545208654e799c1f75228ebc17d5d887df12444eb0b",
    ("sweep", "zero_span_scanned"): "cb36530b25ebdd309ef7fbe0502fcbd056c3277f85d51108b35220ce5e997d35",
    ("bode", "zero_span_scanned"): "f197b9ff07da1858f76aa4b75542f785666cfb4444d3685cadb57324cb165bfd",
    ("margins", "zero_span_scanned"): "e831afab8f57676e012110b3a6cdd1dd96e6e23997c3d8e0507084bbf9ebef6e",
    ("select-freq", "zero_span_scanned"): "b184f2e7848a88e42a0de5c80136e1d356ee7d8df2fc1c89c7155a0c5a065c4f",
    ("fit", "zero_span_scanned"): "d8f2b56eabf3c9427bcab94d58d5a5a9d71de6663bcf49be773db6b73c4fbb47",
    ("optimize", "zero_span_scanned"): "3c0cb9e5ec17ba62aa44f479ade8d7645eaf1da334388b63ae487e4d6f6eaa45",
    ("budget", "zero_span_scanned"): "22addc64818b9f3221d4492ce8527e4904960138f282ad6679dbba50db976119",
    ("report", "zero_span_scanned"): "d6cb59c1ac692a6bd53185523c6ab644849237e83798ffa8c18fc2a9a64fbfdc",
    ("fit-data", "zero_span_scanned"): "899e4fecb1b79183ec13dba61ea013fa243ea3aa51435c36128d8bd86127f3f3",
    ("report-csv", "zero_span_scanned"): "d009426b235f348e8d60054cde03ce98c18e4fe3fdff3dd7fcb8ac113be867b7",
}


def _argv(name: str, scenario: str, out_dir: Path) -> list[str]:
    command, *options = EXTRA.get(name, (name,))
    return [command, str(SCENARIO_DIR / f"{scenario}.scenario"), "--out-dir", str(out_dir), *options]


def run_digest(name: str, scenario: str, out_dir: Path) -> str:
    """SHA-256 of one run's exit code, stdout, stderr and output files."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = run(_argv(name, scenario, out_dir))
    h = hashlib.sha256(f"{code}\n".encode())
    for text in (stdout.getvalue(), stderr.getvalue()):
        h.update(f"{len(text)}\n{text}".encode())
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        h.update(f"{path.name}\n{len(data)}\n".encode() + data)
    return h.hexdigest()


def test_every_command_is_pinned():
    names = {name for name, _ in GOLDEN}
    assert names == {*COMMANDS, *EXTRA} and len(GOLDEN) == 22


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, scenario", sorted(GOLDEN))
def test_output_is_byte_identical(tmp_path, name, scenario):
    assert run_digest(name, scenario, tmp_path) == GOLDEN[name, scenario]


if __name__ == "__main__":
    for scenario in ("zero_span_locked", "zero_span_scanned"):
        for name in (*COMMANDS, *EXTRA):
            with tempfile.TemporaryDirectory() as tmp:
                print(f'    ("{name}", "{scenario}"): "{run_digest(name, scenario, Path(tmp))}",')
