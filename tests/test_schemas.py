"""The stdlib schema checker: agreement with jsonschema, refused keywords, imports.

jsonschema is used only here, as the reference implementation of draft
2020-12; the tests that need it are skipped without it.
"""
import json
import math
import os
import random
import subprocess
import sys

import pytest

from mrplan.plans import plan_to_doc
from mrplan.scene import load_scene
from mrplan.schemas import DocumentError, Schema, schema
from mrplan.search import NoPlan, PlannerConfig, plan

from conftest import EXTRA, REPO, SCENARIOS

SCENES = sorted(SCENARIOS.glob("*.json")) + sorted(EXTRA.glob("*.json"))
MUTATIONS = 60
VALUES = [None, True, False, 0, -1, 1, 2.0, 0.5, -0.0, 1e-9, math.nan, "", "x",
          "disc", "rectangle", "wait", "pick_place", "pick", [], [0.0, 0.0], {}]


def documents():
    """(id, kind, doc): every shipped scene and the plan the planner writes for it."""
    out = []
    for path in SCENES:
        out.append((path.stem, "scene", json.loads(path.read_text())))
        scene = load_scene(path)
        result = plan(scene, PlannerConfig(seed=0))
        if not isinstance(result, NoPlan):
            out.append((f"{path.stem}_plan", "plan", plan_to_doc(result, sorted(scene.robots))))
    return out


DOCUMENTS = documents()


def nodes(doc, path=()):
    yield path, doc
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from nodes(v, path + (k,))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from nodes(v, path + (i,))


def mutate(doc, rng):
    """A copy of ``doc`` with one fault at a random node."""
    doc = json.loads(json.dumps(doc))
    path, node = rng.choice(list(nodes(doc)))
    ops = ["replace"]
    if isinstance(node, dict) and node:
        ops += ["drop_key", "add_key"]
    if isinstance(node, list):
        ops += ["drop_item", "repeat_item", "add_item"] if node else ["add_item"]
    op = rng.choice(ops)
    if op == "replace":
        if not path:
            return rng.choice(VALUES)
        parent = doc
        for p in path[:-1]:
            parent = parent[p]
        parent[path[-1]] = rng.choice(VALUES)
    elif op == "drop_key":
        del node[rng.choice(sorted(node))]
    elif op == "add_key":
        node[rng.choice(["zz", "theta", "fixed", "goal"])] = rng.choice(VALUES)
    elif op == "drop_item":
        del node[rng.randrange(len(node))]
    elif op == "repeat_item":
        node.append(json.loads(json.dumps(node[rng.randrange(len(node))])))
    else:
        node.append(rng.choice(VALUES))
    return doc


def error_paths(validator, doc):
    """Every instance path jsonschema reports an error at, oneOf branches included."""
    out, todo = set(), list(validator.iter_errors(doc))
    while todo:
        e = todo.pop()
        out.add(tuple(e.absolute_path))
        todo.extend(e.context)
    return out


@pytest.mark.parametrize("name, kind, doc", DOCUMENTS, ids=[d[0] for d in DOCUMENTS])
def test_checker_agrees_with_jsonschema(name, kind, doc):
    jsonschema = pytest.importorskip("jsonschema")
    reference = jsonschema.Draft202012Validator(schema(kind).doc)
    rng = random.Random(f"mutate:{name}")
    rejected = 0
    for case in [doc] + [mutate(doc, rng) for _ in range(MUTATIONS)]:
        paths = error_paths(reference, case)
        try:
            schema(kind).check(case)
        except DocumentError as e:
            rejected += 1
            assert e.path in paths, (case, e)
        else:
            assert not paths, (case, paths)
    assert 0 < rejected < MUTATIONS  # the mutations hit both sides


@pytest.mark.parametrize("kind", ["scene", "plan"])
def test_shipped_schemas_are_valid_draft_2020_12(kind):
    jsonschema = pytest.importorskip("jsonschema")
    text = (REPO / "src" / "mrplan" / "schemas" / f"{kind}.schema.json").read_text()
    jsonschema.Draft202012Validator.check_schema(json.loads(text))


@pytest.mark.parametrize("doc", [
    {"type": "string", "pattern": "^R"},
    {"properties": {"a": {"type": "number", "multipleOf": 1}}},
    {"$defs": {"unused": {"anyOf": []}}},
    {"oneOf": [{"type": "object"}, {"format": "date"}]},
    {"items": {"uniqueItems": True}},
    {"additionalProperties": {"minLength": 1}},
    {"type": ["string", "null"]},
    {"type": "null"},
    {"$ref": "other.json#/$defs/pose"},
], ids=["pattern", "in_properties", "in_defs", "in_oneOf", "in_items",
        "in_additionalProperties", "type_list", "type_null", "remote_ref"])
def test_unsupported_keyword_is_refused_at_load(doc):
    with pytest.raises(ValueError, match="unsupported"):
        Schema(doc)


@pytest.mark.parametrize("value", [3, 3.0, 4, 4.5, True, "x"])
def test_maximum_agrees_with_jsonschema(value):
    jsonschema = pytest.importorskip("jsonschema")
    expected = [e.message for e in jsonschema.Draft202012Validator(
        {"maximum": 3}).iter_errors(value)]
    try:
        Schema({"maximum": 3}).check(value)
    except DocumentError as e:
        assert [e.message] == expected
    else:
        assert expected == []


def test_error_path_and_message():
    with pytest.raises(DocumentError) as e:
        schema("scene").check({"regions": [], "movables": [{"name": "M1", "shape": {
            "type": "disc", "radius": 0.0}}], "robots": []})
    assert e.value.path == ("movables", 0)
    assert str(e.value) == "schema error at movables/0: 'pose' is a required property"
    # a oneOf branch that gets deeper than the others names the deeper fault
    with pytest.raises(DocumentError) as e:
        schema("scene").check({"regions": [], "robots": [], "movables": [{
            "name": "M1", "shape": {"type": "disc", "radius": 0.0},
            "pose": {"x": 0, "y": 0}, "home_region": "r"}]})
    assert str(e.value) == ("schema error at movables/0/shape/radius: "
                            "0.0 is less than or equal to the minimum of 0")
    with pytest.raises(DocumentError, match="at <root>: 3 is not of type 'object'"):
        schema("plan").check(3)


def test_loading_documents_does_not_import_jsonschema():
    path = SCENARIOS / "pick_chain.json"
    code = (
        "import sys, mrplan\n"
        f"scene = mrplan.load_scene({str(path)!r})\n"
        "text = mrplan.dumps_plan(mrplan.plan(scene, mrplan.PlannerConfig()),"
        " sorted(scene.robots))\n"
        "mrplan.loads_plan(text, scene.robots)\n"
        "print('jsonschema' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
