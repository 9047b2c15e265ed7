"""The program's outputs do not depend on the process that made them.

A node hashes by its identity, so the order of a set of nodes follows memory
addresses, and a set of strings follows ``PYTHONHASHSEED``.  Two fresh
interpreters, with different hash seeds and different heaps at import, must
print the same documents, translations and probe report."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# argv[1] throwaway objects, of every small allocation size, are made before
# the program is imported, so the nodes it builds sit at other offsets within
# the allocator's pools than in the other run
SCRIPT = """
import sys
junk = [bytes(k % 256) for k in range(int(sys.argv[1]))]
import hashlib
sys.path.insert(0, "tests")
from test_conformance import _digests
from demod import fileformat as ff
from demod.bench import probe_ws_exhaustive, random_hilbert_corpus, random_nd_corpus
from demod.hilbert import zi_axiom_schemata
from demod.theories import OrderConfig
from demod.translate import hilbert_to_nd, nd_to_hilbert


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


for name, value in _digests().items():  # every witnessed HHA fragment among them
    print(name, value)
cat1, cat2 = zi_axiom_schemata(OrderConfig(1)), zi_axiom_schemata(OrderConfig(2))
for k, proof in enumerate(random_hilbert_corpus(40, 2024)):
    out = hilbert_to_nd(proof, cat2)
    parts = [ff.nd_proof_document(out.proof)]
    parts += [ff.prop_to_sx(p) for _, p in out.assumptions]
    parts += [ff.instance_to_sx(inst) for _, inst in out.instances]
    print("hilbert_to_nd", k, digest("".join(map(ff.dumps, parts))), *(name for name, _ in out.assumptions))
for k, (proof, instances) in enumerate(random_nd_corpus(40, 2026)):
    print("nd_to_hilbert", k, digest(ff.dumps(ff.hilbert_to_sx(nd_to_hilbert(proof, cat1, instances)))))
print("probe_ws_exhaustive(7)", digest(probe_ws_exhaustive(7).to_json()))
"""


def _run(hash_seed: str, junk: int) -> subprocess.Popen:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-c", SCRIPT, str(junk)], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def test_outputs_repeat_across_interpreters():
    runs = [_run("1", 0), _run("2718", 100_003)]
    outputs = []
    for run in runs:
        out, err = run.communicate(timeout=60)
        assert run.returncode == 0, err
        outputs.append(out)
    lines = outputs[0].splitlines()
    assert len(lines) > 150 and lines[-1].startswith("probe_ws_exhaustive(7) ")
    assert outputs[0] == outputs[1]
