"""The projective model hypersurface and the tube over the light cone."""

from cartancr import liealg, model
from cartancr.numfield import ZERO, ONE, I


def main():
    print("projective membership verdicts:")
    for point in [(ONE, I, ZERO, ONE, -I),
                  (ONE, ZERO, ZERO, ZERO, ZERO),
                  (ONE, I, ZERO, ONE, I)]:
        res = model.membership_model(point)
        coords = "(" + ", ".join(c.serialize() for c in point) + ")"
        print(f"  {coords}: member={res['member']} "
              f"(sym={res['symmetric'].serialize()}, "
              f"herm={res['hermitian'].serialize()}, "
              f"positivity sign={res['positivity_sign']})")

    print("\nLevi form of the tube at cone points:")
    for x in model.PYTHAGOREAN_SAMPLES:
        data = model.levi_form_tube(x)
        rows = [[v.serialize() for v in row] for row in data["matrix"]]
        print(f"  at {x}: matrix {rows}, det {data['determinant'].serialize()}, "
              f"kernel dim {data['kernel_dim']}, radial {data['kernel_is_radial']}")

    print("\ninfinitesimal tangency of the algebra action:")
    members = [(ONE, I, ZERO, ONE, -I), (ONE, -I, ZERO, ONE, -I),
               (ZERO, ONE, I, ONE, -I)]
    zeros = 0
    for x in liealg.build_basis("standard").elements:
        for p in members:
            d_sym, d_herm = model.tangency_defects(x, p)
            zeros += int(d_sym.is_zero()) + int(d_herm.is_zero())
    print(f"  {zeros}/60 flow derivatives of the defining pairings vanish")


if __name__ == "__main__":
    main()
