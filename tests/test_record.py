"""Value records: equality, hashing, ordering and ``replace`` keyed on slots."""
import importlib
import math
import pkgutil

import pytest

import mrplan
from mrplan.geometry import Corridor, Disc, Pose
from mrplan.plans import PartiallyGroundedAction
from mrplan.record import Record
from mrplan.search import PlannerConfig


def test_records_compare_and_hash_by_class_and_fields():
    assert Pose(1.0, 2.0, 2 * math.pi) == Pose(1.0, 2.0) != Pose(1.0, 2.5)
    assert Disc(0.1) != Pose(0.1, 0.0)
    # a record hashes as the tuple of its fields, as a frozen dataclass did
    assert hash(Pose(1.0, 2.0, 0.5)) == hash((1.0, 2.0, 0.5))
    assert hash(Disc(0.1)) == hash((0.1,))
    assert repr(Disc(0.1)) == "Disc(radius=0.1)"


def test_replace_builds_a_new_record_through_its_checks():
    cor = Corridor((0.0, 0.0), (1.0, 0.0), 0.2)
    assert cor.replace(width=0.3) == Corridor((0.0, 0.0), (1.0, 0.0), 0.3)
    assert cor.width == 0.2
    assert Pose(0.0, 0.0).replace(theta=-math.pi / 2).theta == 1.5 * math.pi
    with pytest.raises(ValueError, match="t_max, k_max and node_budget must be >= 1"):
        PlannerConfig().replace(t_max=0)
    with pytest.raises(TypeError):
        cor.replace(length=1.0)


def test_an_action_is_identified_and_ordered_by_all_its_fields():
    a = PartiallyGroundedAction("M1", "goal", "R1", "R2", (0.5, 1.0))
    b = a.replace(grasps=(0.5,))
    assert a.grasp_pick == b.grasp_pick == 0.5
    assert a != b and len({a, b}) == 2
    assert a == PartiallyGroundedAction("M1", "goal", "R1", "R2", (0.5, 1.0))
    assert hash(a) == hash(("M1", "goal", "R1", "R2", (0.5, 1.0)))
    assert repr(a) == ("PartiallyGroundedAction(obj='M1', region='goal', pick_robot='R1', "
                       "place_robot='R2', grasps=(0.5, 1.0))")
    actions = [a.replace(obj="M2"), a.replace(place_robot="R1"), a.replace(grasps=(0.1,)), a, b]
    assert sorted(actions) == sorted(actions, key=lambda x: (
        x.obj, x.region, x.pick_robot, x.place_robot, x.grasps))
    assert sorted(actions)[:3] == [a.replace(place_robot="R1"), a.replace(grasps=(0.1,)), b]


def test_a_derived_slot_is_recomputed_by_replace_and_is_not_a_field():
    cor = Corridor((0.0, 0.0), (1.0, 0.0), 0.2)
    wider = cor.replace(width=0.6, b=(0.0, 2.0))
    # replace rebuilds the underscore slots from the new fields
    assert wider.half_width == 0.3 and wider._seg == Corridor((0.0, 0.0), (0.0, 2.0), 0.6)._seg
    assert cor.half_width == 0.1
    assert Corridor._fields == ("a", "b", "width")
    assert repr(cor) == "Corridor(a=(0.0, 0.0), b=(1.0, 0.0), width=0.2)"
    assert hash(cor) == hash(((0.0, 0.0), (1.0, 0.0), 0.2))
    # records that differ only in a derived slot are equal
    twin = Corridor((0.0, 0.0), (1.0, 0.0), 0.2)
    twin._half_width = 5.0
    assert twin == cor and hash(twin) == hash(cor) and repr(twin) == repr(cor)


def _records(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _records(sub)


def test_every_record_is_keyed_on_exactly_its_slots_without_an_underscore():
    for info in pkgutil.walk_packages(mrplan.__path__, "mrplan."):
        importlib.import_module(info.name)
    records = [cls for cls in _records(Record) if cls.__module__.startswith("mrplan.")]
    assert PartiallyGroundedAction in records and Corridor in records
    for cls in records:
        fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        # a distinct marker in every slot, underscore slots too
        r = object.__new__(cls)
        for k, name in enumerate(cls.__slots__):
            setattr(r, name, (name, k))
        assert r._key(r) == tuple(getattr(r, name) for name in fields), cls
        assert repr(r).startswith(f"{cls.__qualname__}({fields[0]}="), cls
